(* Bounded deterministic schedule exploration (stateless model checking).

   Each execution steps the engine by hand: at every branching point — more
   than one event in the ready window, or an adversarial injection still in
   budget — a [decide] callback picks the continuation. The explorer
   enumerates prefixes of such decisions by rightmost-increment DFS with
   iterative deepening.

   Backtracking is checkpoint-based: at every decision frame the session
   captures the whole world ({!Group.checkpoint} — engine heap, network
   matrices, member protocol state, trace cursors, RNGs) plus the loop's own
   bookkeeping, and moving to the next DFS prefix restores the frame where
   the prefix increments instead of re-executing the shared prefix from the
   root. A capture is flat-array blits plus O(1) copy-on-write clock
   publishes, so backtracking costs O(world) instead of O(depth x prefix
   events). The pre-snapshot engine — rebuild the group from the model
   (fixed config, seed and delay distribution make the rebuild a pure
   function of the choices) and replay every prefix from scratch — survives
   behind [~snapshots:false] as the reference oracle the test suite compares
   against; both produce byte-identical outcomes.

   Two reductions keep the tree tractable:

   - sleep-set-style commutation: right after firing an event of process q,
     a still-ready event of process p < q that was already ready before is
     skipped; the p-first order of that commuting pair lives on a sibling
     branch. Because [Engine.fire] pins [now] to the window base, the two
     orders are time-identical, so the skipped branch is a true duplicate.
   - state-hash pruning: branching states are fingerprinted (all members'
     protocol state + network adversarial state + pending events at
     quantized relative fire times + adversary budgets spent). A state
     whose subtree has been fully explored with at least as much remaining
     depth is not re-entered. Entries are committed only when the DFS pops
     the subtree (rightmost-increment moves above it) — committing at first
     visit would prune the very siblings the DFS is about to enumerate. *)

open Gmp_base
module Engine = Gmp_sim.Engine
module Network = Gmp_net.Network
module Delay = Gmp_net.Delay
module Config = Gmp_core.Config
module Group = Gmp_runtime.Group
module Member = Gmp_core.Member
module View = Gmp_core.View
module Trace = Gmp_core.Trace
module Checker = Gmp_core.Checker
module Fuzz = Gmp_workload.Fuzz

type adversary = {
  crashes : int;
  suspicions : int;
  isolations : int;
  heal : bool;
}

let no_adversary = { crashes = 0; suspicions = 0; isolations = 0; heal = false }

type model = {
  n : int;
  config : Config.t;
  seed : int;
  delay : Delay.t;
  horizon : float;
  slack : float;
  adversary : adversary;
}

(* Constant delay keeps every window a clean tie (all heartbeats of a round
   deliver at the same instant); slack 0.5 < delay 1.0 so a window never
   swallows a message caused by an event inside it. *)
let assurance ?(n = 3) ?(seed = 1) () =
  { n;
    config = Config.default;
    seed;
    delay = Delay.constant 1.0;
    horizon = 40.0;
    slack = 0.5;
    adversary = { no_adversary with crashes = 1; suspicions = 2 } }

let sensitivity ?(n = 5) ?(seed = 1) () =
  { n;
    config = Config.basic;
    seed;
    delay = Delay.constant 1.0;
    horizon = 80.0;
    slack = 0.5;
    adversary = { no_adversary with isolations = 1 } }

type injection =
  | Crash of int
  | Suspect of int * int
  | Isolate of int
  | Heal

type choice = Fire of int | Inject of injection

let pp_injection ppf = function
  | Crash i -> Fmt.pf ppf "crash p%d" i
  | Suspect (o, tg) -> Fmt.pf ppf "suspect p%d->p%d" o tg
  | Isolate i -> Fmt.pf ppf "isolate p%d" i
  | Heal -> Fmt.string ppf "heal"

let pp_choice ppf = function
  | Fire i -> Fmt.pf ppf "fire#%d" i
  | Inject inj -> pp_injection ppf inj

type stats = {
  executions : int;
  distinct : int;
  frames : int;
  state_pruned : int;
  sleep_pruned : int;
  max_depth : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "%d executions, %d distinct interleavings, %d frames expanded, %d \
     state-pruned, %d sleep-pruned, depth<=%d"
    s.executions s.distinct s.frames s.state_pruned s.sleep_pruned s.max_depth

type counterexample = {
  cx_choices : choice list;
  cx_injections : int;
  cx_violations : Checker.violation list;
}

type outcome = {
  stats : stats;
  counterexample : counterexample option;
}

let pp_outcome ppf o =
  match o.counterexample with
  | None -> Fmt.pf ppf "no violation (%a)" pp_stats o.stats
  | Some cx ->
    Fmt.pf ppf "VIOLATION after %d executions: [%a] -> %a"
      o.stats.executions
      Fmt.(list ~sep:(any "; ") pp_choice)
      cx.cx_choices
      Fmt.(list ~sep:(any "; ") Checker.pp_violation)
      cx.cx_violations

(* ---- one bounded execution ---- *)

type budgets = {
  mutable u_crashes : int;
  mutable u_suspicions : int;
  mutable u_isolations : int;
  mutable isolated : int option;
}

type frame = {
  f_ncands : int;
  f_chosen : int;
  f_choice : choice;
  f_fp : int;
  f_remaining : int;
}

type run_result = {
  r_frames : frame list; (* in decision order *)
  r_violations : Checker.violation list;
  r_pruned : bool;
  r_hit_depth : bool; (* branching remained beyond the recorded depth *)
  r_final_fp : int;
  r_sleep_skips : int;
}

let fp_mix h x = (h * 0x01000193) lxor (x land max_int)

(* Protocol + network + pending-event + adversary-budget state. Pending
   events hash by (relative fire time, proc, chan) combined additively, so
   the heap's internal order is irrelevant; relative times make the hash
   invariant under time translation. *)
let state_fp group st =
  let engine = Group.engine group in
  let now = Engine.now engine in
  let pending =
    Engine.fold_live engine ~init:0 ~f:(fun acc h ->
        let rel = int_of_float ((Engine.fire_time h -. now) *. 1e6) in
        let e =
          fp_mix
            (fp_mix (fp_mix 0x811c9dc5 rel) (Engine.proc_of h + 1))
            (Engine.chan_of h + 1)
        in
        acc + (e lor 1))
  in
  let h = fp_mix (Group.fingerprint group) pending in
  let h = fp_mix h st.u_crashes in
  let h = fp_mix h st.u_suspicions in
  let h = fp_mix h st.u_isolations in
  fp_mix h (match st.isolated with None -> -1 | Some i -> i)

(* Injections offered at a branching point, in DFS order (adversarial moves
   first, so the interesting schedules surface early). Pointless branches —
   crashing a dead process, isolating the already-isolated one, suspecting a
   process already deemed faulty — are not offered. *)
let injection_candidates m group st =
  let adv = m.adversary in
  let alive i = Member.operational (Group.nth group i) in
  let acc = ref [] in
  (* built back-to-front: Isolate, then Crash, then Suspect, then Heal *)
  if adv.heal && st.isolated <> None then acc := Heal :: !acc;
  if st.u_suspicions < adv.suspicions then
    for o = m.n - 1 downto 0 do
      let obs = Group.nth group o in
      if Member.operational obs && Member.joined obs then
        for tg = m.n - 1 downto 0 do
          if tg <> o then begin
            let tgt = Member.pid (Group.nth group tg) in
            if
              List.exists (Pid.equal tgt) (View.members (Member.view obs))
              && not (Pid.Set.mem tgt (Member.faulty_set obs))
            then acc := Suspect (o, tg) :: !acc
          end
        done
    done;
  if st.u_crashes < adv.crashes then
    for i = m.n - 1 downto 0 do
      if alive i then acc := Crash i :: !acc
    done;
  if st.u_isolations < adv.isolations then
    for i = m.n - 1 downto 0 do
      if alive i && st.isolated <> Some i then acc := Isolate i :: !acc
    done;
  !acc

let apply_injection group st inj =
  match inj with
  | Crash i ->
    st.u_crashes <- st.u_crashes + 1;
    Member.inject_crash (Group.nth group i)
  | Suspect (o, tg) ->
    st.u_suspicions <- st.u_suspicions + 1;
    Member.inject_suspicion (Group.nth group o) (Member.pid (Group.nth group tg))
  | Isolate i ->
    st.u_isolations <- st.u_isolations + 1;
    st.isolated <- Some i;
    Network.partition (Group.network group) [ [ Member.pid (Group.nth group i) ] ]
  | Heal ->
    st.isolated <- None;
    Network.heal (Group.network group)

let describe_fire group h =
  let net = Group.network group in
  let t = Engine.fire_time h in
  match Network.decode_chan net (Engine.chan_of h) with
  | Some (src, dst) -> Fmt.str "t=%.2f deliver %a->%a" t Pid.pp src Pid.pp dst
  | None -> (
    match Network.pid_of_slot net (Engine.proc_of h) with
    | Some pid -> Fmt.str "t=%.2f timer at %a" t Pid.pp pid
    | None -> Fmt.str "t=%.2f event" t)

let build m =
  let group =
    Group.create ~config:m.config ~delay:m.delay ~seed:m.seed ~n:m.n ()
  in
  Engine.set_slack (Group.engine group) m.slack;
  group

(* Livelock guard per execution; real runs take a few hundred steps. *)
let max_exec_steps = 200_000

(* Mutable per-execution loop state, split out so a checkpoint can capture
   and a restore can rewind it alongside the world itself. *)
type exec_state = {
  mutable x_frames : frame list; (* reversed *)
  mutable x_nframes : int;
  mutable x_violations : Checker.violation list;
  mutable x_last_len : int;
  mutable x_pruned : bool;
  mutable x_hit_depth : bool;
  mutable x_sleep : int;
  mutable x_prev_fired : Engine.handle option;
  mutable x_prev_ready : Engine.handle list;
  mutable x_steps : int;
}

(* A decision-frame checkpoint: the world ({!Group.checkpoint}) plus the
   adversary budgets, the loop bookkeeping and the frame's own candidate
   set. [cp_ready]/[cp_fires] hold engine handles by reference — restore is
   in-place, so after [Group.restore] the very same handle objects are live
   in the heap again and can be fired directly without recomputing the
   window. The sleep filter's physical-equality test ([List.memq] against
   [cp_prev_ready]) survives restore for the same reason. *)
type cp = {
  cp_world : Group.checkpoint;
  cp_crashes : int;
  cp_suspicions : int;
  cp_isolations : int;
  cp_isolated : int option;
  cp_frames : frame list; (* frames strictly before this one, reversed *)
  cp_last_len : int;
  cp_sleep : int;
  cp_prev_fired : Engine.handle option;
  cp_prev_ready : Engine.handle list;
  cp_steps : int;
  cp_ready : Engine.handle list;
  cp_fires : Engine.handle list;
  cp_cands : choice array;
  cp_fp : int;
}

(* One exploration session: a single world reused across the executions of
   a DFS round, with a checkpoint slot per decision index. Slots above the
   current run's frame count go stale when the DFS descends a new subtree,
   but [next_prefix] only ever resumes at indices the current run recorded,
   so stale slots are never read. With [ncps = 0] (the replay paths and the
   [~snapshots:false] oracle) no captures happen and every execution must
   start from a fresh session. *)
type session = {
  s_model : model;
  s_group : Group.t;
  s_engine : Engine.t;
  s_trace : Trace.t;
  s_initial : Pid.t list;
  s_st : budgets;
  s_x : exec_state;
  s_cps : cp option array;
}

let make_session m ~ncps =
  let group = build m in
  { s_model = m;
    s_group = group;
    s_engine = Group.engine group;
    s_trace = Group.trace group;
    s_initial = Group.initial group;
    s_st =
      { u_crashes = 0; u_suspicions = 0; u_isolations = 0; isolated = None };
    s_x =
      { x_frames = [];
        x_nframes = 0;
        x_violations = [];
        x_last_len = Trace.length (Group.trace group);
        x_pruned = false;
        x_hit_depth = false;
        x_sleep = 0;
        x_prev_fired = None;
        x_prev_ready = [];
        x_steps = 0 };
    s_cps = Array.make ncps None }

(* The only event kinds [Checker.check_safety] reads: GMP-1 folds over
   [Faulty]/[Removed], GMP-0/2/3/4 over [Installed], and the internal check
   over [Violation]. Appending any other kind cannot change a verdict that
   was clean, so the full-trace rescan is skipped unless the step recorded
   at least one of these. *)
let checker_relevant = function
  | Trace.Faulty _ | Trace.Removed _ | Trace.Installed _ | Trace.Violation _
    ->
    true
  | _ -> false

let check sess =
  let x = sess.s_x in
  let len = Trace.length sess.s_trace in
  if len <> x.x_last_len then begin
    let relevant = ref false in
    for i = x.x_last_len to len - 1 do
      if checker_relevant (Trace.get sess.s_trace i).Trace.kind then
        relevant := true
    done;
    x.x_last_len <- len;
    if !relevant then
      match Checker.check_safety sess.s_trace ~initial:sess.s_initial with
      | [] -> ()
      | vs -> x.x_violations <- vs
  end

let fire_and_track sess ~narrate ready h =
  (match narrate with
  | Some f -> f (describe_fire sess.s_group h)
  | None -> ());
  Engine.fire sess.s_engine h;
  sess.s_x.x_prev_fired <- Some h;
  sess.s_x.x_prev_ready <- ready

(* Record frame [x_nframes] with candidate [k] and apply the choice. *)
let take sess ~depth ~narrate ~ready ~fires ~cands ~fp k =
  let x = sess.s_x in
  let k = if k < 0 || k >= Array.length cands then 0 else k in
  x.x_frames <-
    { f_ncands = Array.length cands;
      f_chosen = k;
      f_choice = cands.(k);
      f_fp = fp;
      f_remaining = depth - x.x_nframes }
    :: x.x_frames;
  x.x_nframes <- x.x_nframes + 1;
  (match cands.(k) with
  | Fire i -> fire_and_track sess ~narrate ready (List.nth fires i)
  | Inject inj ->
    (match narrate with
    | Some f ->
      f (Fmt.str "t=%.2f %a" (Engine.now sess.s_engine) pp_injection inj)
    | None -> ());
    apply_injection sess.s_group sess.s_st inj;
    x.x_prev_fired <- None;
    x.x_prev_ready <- []);
  check sess

(* Once the decision budget is spent, the rest of the run — the "default
   tail" — is a pure function of the world state at that point: no choices,
   no injections, just default-order stepping until quiescence, the horizon
   or a violation. The memo records the tail outcome keyed by the state
   fingerprint of {e every} state the tail passes through, not just its
   entry: a fresh tail executes only until its trajectory merges with any
   previously explored one, then splices the stored suffix outcome (final
   fingerprint, violations, remaining step count) and stops. Schedules that
   converge to a common state — commuting orders the sleep filter could not
   cancel, late reorderings of the same heartbeat round — therefore share
   the common suffix once. This leans on the same state-hash assumption as
   the pruning table (same fingerprint => same future), and both engines
   consult the memo identically, so snapshots on/off remain byte-identical.
   Entries are only stored for tails that completed within the step guard,
   and a hit is only taken when the stored step count fits under the guard
   from this run's position — a guard-truncated tail is prefix-dependent
   and must re-execute. *)
type tail_rec = {
  t_final_fp : int;
  t_violations : Checker.violation list;
  t_hit_depth : bool; (* a >=2-wide window occurs in this suffix *)
  t_steps : int; (* loop iterations from this state to run end, inclusive *)
}

let result_of ?final_fp sess =
  let x = sess.s_x in
  { r_frames = List.rev x.x_frames;
    r_violations = x.x_violations;
    r_pruned = x.x_pruned;
    r_hit_depth = x.x_hit_depth;
    r_final_fp =
      (match final_fp with
      | Some fp -> fp
      | None -> state_fp sess.s_group sess.s_st);
    r_sleep_skips = x.x_sleep }

(* Drive the current execution to its end, consulting [decide] at every
   branching point up to [depth] decisions and following the default order
   beyond. [prune fp remaining] is a read-only oracle ("has this state been
   exhausted with at least [remaining] depth to spare?"); commits happen in
   the DFS controller once a subtree is exhausted. When the session has
   checkpoint slots, every decision frame that passes the prune check is
   captured before [decide] runs, so any sibling can later be entered by
   restore. *)
let finish_run ?memo sess ~depth ~prune ~decide ~narrate =
  let m = sess.s_model in
  let st = sess.s_st in
  let x = sess.s_x in
  let engine = sess.s_engine in
  (* (fingerprint, steps-at-state) for every tail state this run executed
     through, most recent first; turned into memo entries once the run's
     end (and thus each suffix's outcome) is known. *)
  let tail_keys = ref [] in
  (* last loop iteration that saw a >=2-wide window, for per-suffix
     [t_hit_depth] (a cumulative boolean could not tell whether the wide
     window fell before or after a given recorded state). *)
  let last_wide = ref 0 in
  (* set on a memo hit: (final fingerprint, spliced suffix had a wide
     window) — the executed lead-in states still get memo entries, their
     suffixes ending through the stored trajectory. *)
  let memo_fp = ref None in
  let hit_wide = ref false in
  (try
     while x.x_violations = [] do
       x.x_steps <- x.x_steps + 1;
       if x.x_steps > max_exec_steps then raise Exit;
       match Engine.ready engine with
       | [] -> raise Exit (* quiescent *)
       | hd :: _ as ready ->
         if Engine.fire_time hd > m.horizon then raise Exit;
         if x.x_nframes >= depth then begin
           (* decision budget spent: deterministic default tail *)
           (match memo with
           | Some tbl ->
             let key = state_fp sess.s_group st in
             (match Hashtbl.find_opt tbl key with
             | Some tr when x.x_steps - 1 + tr.t_steps <= max_exec_steps ->
               x.x_violations <- tr.t_violations;
               x.x_hit_depth <- x.x_hit_depth || tr.t_hit_depth;
               x.x_steps <- x.x_steps - 1 + tr.t_steps;
               memo_fp := Some tr.t_final_fp;
               hit_wide := tr.t_hit_depth;
               raise Exit
             | _ -> tail_keys := (key, x.x_steps) :: !tail_keys)
           | None -> ());
           (match ready with
           | _ :: _ :: _ ->
             x.x_hit_depth <- true;
             last_wide := x.x_steps
           | _ -> ());
           Engine.fire engine hd;
           x.x_prev_fired <- Some hd;
           x.x_prev_ready <- ready;
           check sess
         end
         else begin
           (* Sleep filter: drop events that reorder backwards (towards a
              lower process slot) against the event just fired — that order
              was already offered on an earlier sibling. If everything is
              filtered, fall back to the unfiltered window. *)
           let fires =
             match x.x_prev_fired with
             | Some g when Engine.proc_of g >= 0 ->
               let gp = Engine.proc_of g in
               let prev = x.x_prev_ready in
               List.filter
                 (fun h ->
                   let hp = Engine.proc_of h in
                   not (hp >= 0 && hp < gp && List.memq h prev))
                 ready
             | _ -> ready
           in
           let fires = if fires = [] then ready else fires in
           x.x_sleep <- x.x_sleep + (List.length ready - List.length fires);
           let injections = injection_candidates m sess.s_group st in
           match (injections, fires) with
           | [], [ only ] ->
             (* no real branching: apply without consuming depth *)
             fire_and_track sess ~narrate ready only;
             check sess
           | _ ->
             let fp = state_fp sess.s_group st in
             if prune fp (depth - x.x_nframes) then begin
               x.x_pruned <- true;
               raise Exit
             end;
             let cands =
               Array.of_list
                 (List.map (fun i -> Inject i) injections
                 @ List.mapi (fun i _ -> Fire i) fires)
             in
             if x.x_nframes < Array.length sess.s_cps then
               sess.s_cps.(x.x_nframes) <-
                 Some
                   { cp_world = Group.checkpoint sess.s_group;
                     cp_crashes = st.u_crashes;
                     cp_suspicions = st.u_suspicions;
                     cp_isolations = st.u_isolations;
                     cp_isolated = st.isolated;
                     cp_frames = x.x_frames;
                     cp_last_len = x.x_last_len;
                     cp_sleep = x.x_sleep;
                     cp_prev_fired = x.x_prev_fired;
                     cp_prev_ready = x.x_prev_ready;
                     cp_steps = x.x_steps;
                     cp_ready = ready;
                     cp_fires = fires;
                     cp_cands = cands;
                     cp_fp = fp };
             take sess ~depth ~narrate ~ready ~fires ~cands ~fp
               (decide x.x_nframes cands)
         end
     done
   with Exit -> ());
  let final_fp =
    match !memo_fp with
    | Some fp -> fp
    | None ->
      (* A pruned run's final fingerprint is never read (the controller
         only keys completed interleavings), and a pruned run records no
         tail keys — skip the hash. *)
      if x.x_pruned then 0 else state_fp sess.s_group st
  in
  (match memo with
  | Some tbl when x.x_steps <= max_exec_steps ->
    List.iter
      (fun (key, at_steps) ->
        Hashtbl.replace tbl key
          { t_final_fp = final_fp;
            t_violations = x.x_violations;
            t_hit_depth = !last_wide >= at_steps || !hit_wide;
            t_steps = x.x_steps - at_steps + 1 })
      !tail_keys
  | _ -> ());
  result_of ~final_fp sess

(* Enter the sibling branch [choice] of decision frame [at] by restoring
   its checkpoint: the world rewinds in place, the loop state reloads from
   the capture, the forced sibling is taken, and the run continues with the
   default decision order (rightmost-increment prefixes are default-0 past
   the incremented index). This replaces re-executing the whole prefix from
   the root — the saving that makes the explorer fast. *)
let resume_run ?memo sess ~depth ~prune ~narrate ~at ~choice =
  let cp =
    match sess.s_cps.(at) with
    | Some c -> c
    | None -> invalid_arg "Explore.resume_run: no checkpoint at this frame"
  in
  Group.restore sess.s_group cp.cp_world;
  let st = sess.s_st in
  st.u_crashes <- cp.cp_crashes;
  st.u_suspicions <- cp.cp_suspicions;
  st.u_isolations <- cp.cp_isolations;
  st.isolated <- cp.cp_isolated;
  let x = sess.s_x in
  x.x_frames <- cp.cp_frames;
  x.x_nframes <- at;
  x.x_violations <- [];
  x.x_last_len <- cp.cp_last_len;
  x.x_pruned <- false;
  x.x_hit_depth <- false;
  x.x_sleep <- cp.cp_sleep;
  x.x_prev_fired <- cp.cp_prev_fired;
  x.x_prev_ready <- cp.cp_prev_ready;
  x.x_steps <- cp.cp_steps;
  if prune cp.cp_fp (depth - at) then begin
    (* Unreachable within a round: commits since this frame was captured
       all carry strictly less remaining depth than a prefix frame holds
       (the DFS commits only below the incremented index), and the capture
       itself proves the previous visit passed this check. Kept as a guard
       so a pruning-policy change can never silently desync the snapshot
       path from the replay oracle — it fails identically instead. *)
    x.x_pruned <- true;
    result_of sess
  end
  else begin
    take sess ~depth ~narrate ~ready:cp.cp_ready ~fires:cp.cp_fires
      ~cands:cp.cp_cands ~fp:cp.cp_fp choice;
    finish_run ?memo sess ~depth ~prune ~decide:(fun _ _ -> 0) ~narrate
  end

(* One full execution on a throwaway world — the replay paths and the
   [~snapshots:false] oracle engine. *)
let execute ?memo m ~depth ~prune ~decide ~narrate =
  finish_run ?memo (make_session m ~ncps:0) ~depth ~prune ~decide ~narrate

(* ---- replay ---- *)

(* Map a stored choice onto the current candidate array. On an exact replay
   candidates match one-to-one; during shrinking, dropped choices shift the
   later ones, so out-of-range fire indices clamp to the last fire and
   no-longer-legal injections degrade to the first fire candidate. *)
let resolve c cands =
  let ncands = Array.length cands in
  match c with
  | Inject inj ->
    let rec find i =
      if i >= ncands then None
      else
        match cands.(i) with
        | Inject inj' when inj' = inj -> Some i
        | _ -> find (i + 1)
    in
    (match find 0 with
    | Some i -> i
    | None ->
      let rec first_fire i =
        if i >= ncands then 0
        else match cands.(i) with Fire _ -> i | Inject _ -> first_fire (i + 1)
      in
      first_fire 0)
  | Fire i ->
    let base = ref (-1) in
    let nf = ref 0 in
    Array.iteri
      (fun k c' ->
        match c' with
        | Fire _ ->
          if !base < 0 then base := k;
          incr nf
        | Inject _ -> ())
      cands;
    if !nf = 0 then 0 else !base + min i (!nf - 1)

let run_choices m choices ~narrate =
  let q = ref choices in
  let decide _k cands =
    match !q with
    | [] -> 0
    | c :: rest ->
      q := rest;
      resolve c cands
  in
  execute m ~depth:(List.length choices) ~prune:(fun _ _ -> false) ~decide
    ~narrate

let replay m choices = (run_choices m choices ~narrate:None).r_violations

let describe m choices =
  let lines = ref [] in
  let r = run_choices m choices ~narrate:(Some (fun s -> lines := s :: !lines)) in
  let verdicts =
    List.map (fun v -> Fmt.str "%a" Checker.pp_violation v) r.r_violations
  in
  List.rev !lines @ verdicts

(* ---- DFS controller ---- *)

let choice_code = function
  | Fire i -> (i lsl 3) lor 1
  | Inject (Crash i) -> (i lsl 3) lor 2
  | Inject (Suspect (o, tg)) -> (((o lsl 12) lor tg) lsl 3) lor 3
  | Inject (Isolate i) -> (i lsl 3) lor 4
  | Inject Heal -> 5

let interleaving_key frames final_fp =
  List.fold_left
    (fun h f -> fp_mix h (choice_code f.f_choice))
    (final_fp land max_int) frames

(* Rightmost frame with an unexplored sibling; returns the advanced prefix
   and the index that moved. *)
let next_prefix frames =
  let arr = Array.of_list frames in
  let rec scan i =
    if i < 0 then None
    else if arr.(i).f_chosen + 1 < arr.(i).f_ncands then
      Some
        ( Array.init (i + 1) (fun j ->
              if j = i then arr.(j).f_chosen + 1 else arr.(j).f_chosen),
          i )
    else scan (i - 1)
  in
  scan (Array.length arr - 1)

(* Shrink the raw violating choice list to a minimal, replay-verified
   counterexample. *)
let shrink_counterexample m = function
  | None -> None
  | Some (choices, found_violations) ->
    let still_fails cs = replay m cs <> [] in
    let minimal = Fuzz.delta_debug ~still_fails choices in
    let violations = replay m minimal in
    (* delta_debug keeps lists non-empty; if even the empty/default
       schedule violates, fall back to what the search recorded *)
    let minimal, violations =
      if violations = [] then (choices, found_violations)
      else (minimal, violations)
    in
    Some
      { cx_choices = minimal;
        cx_injections =
          List.length
            (List.filter
               (function Inject _ -> true | Fire _ -> false)
               minimal);
        cx_violations = violations }

let explore ?progress ?(snapshots = true) m ~depth ~budget =
  if depth < 1 then invalid_arg "Explore.explore: depth must be positive";
  if budget < 1 then invalid_arg "Explore.explore: budget must be positive";
  let seen : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let distinct : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let execs = ref 0 in
  let frames_total = ref 0 in
  let state_pruned = ref 0 in
  let sleep_skips = ref 0 in
  let max_d = ref 0 in
  let cex = ref None in
  let stats () =
    { executions = !execs;
      distinct = Hashtbl.length distinct;
      frames = !frames_total;
      state_pruned = !state_pruned;
      sleep_pruned = !sleep_skips;
      max_depth = !max_d }
  in
  (* Frames strictly below the incremented index have exhausted their
     subtrees: remember their states so other paths reaching them are
     pruned. Committing any earlier would prune unexplored siblings. *)
  let commit frames upto =
    List.iteri
      (fun i f ->
        if i > upto then begin
          let prev =
            match Hashtbl.find_opt seen f.f_fp with
            | Some r -> r
            | None -> min_int
          in
          if f.f_remaining > prev then Hashtbl.replace seen f.f_fp f.f_remaining
        end)
      frames
  in
  let prune fp remaining =
    match Hashtbl.find_opt seen fp with
    | Some r -> r >= remaining
    | None -> false
  in
  (* Default-tail outcomes, shared across rounds (tails are depth-free). *)
  let memo : (int, tail_rec) Hashtbl.t = Hashtbl.create 4096 in
  let round d =
    max_d := max !max_d d;
    (* One world per round when snapshotting: the first execution runs it
       from scratch, every later one backtracks into it by restore. *)
    let sess = if snapshots then Some (make_session m ~ncps:d) else None in
    let prefix = ref [||] in
    let resume = ref None in
    let exhausted = ref false in
    let deeper = ref false in
    while (not !exhausted) && !execs < budget && !cex = None do
      incr execs;
      let r =
        match sess with
        | Some sess -> (
          match !resume with
          | None ->
            finish_run ~memo sess ~depth:d ~prune
              ~decide:(fun _ _ -> 0)
              ~narrate:None
          | Some (i, k) ->
            resume_run ~memo sess ~depth:d ~prune ~narrate:None ~at:i
              ~choice:k)
        | None ->
          let p = !prefix in
          let decide k _cands = if k < Array.length p then p.(k) else 0 in
          execute ~memo m ~depth:d ~prune ~decide ~narrate:None
      in
      frames_total := !frames_total + List.length r.r_frames;
      sleep_skips := !sleep_skips + r.r_sleep_skips;
      if r.r_pruned then incr state_pruned
      else begin
        let key = interleaving_key r.r_frames r.r_final_fp in
        if not (Hashtbl.mem distinct key) then Hashtbl.add distinct key ()
      end;
      if r.r_hit_depth then deeper := true;
      if r.r_violations <> [] then
        cex := Some (List.map (fun f -> f.f_choice) r.r_frames, r.r_violations)
      else begin
        match next_prefix r.r_frames with
        | None ->
          commit r.r_frames (-1);
          exhausted := true
        | Some (p, i) ->
          commit r.r_frames i;
          prefix := p;
          resume := Some (i, p.(i))
      end;
      match progress with
      | Some f when !execs mod 200 = 0 -> f (stats ())
      | _ -> ()
    done;
    !deeper
  in
  let rec rounds d =
    let deeper = round d in
    (* Deepen only while executions were actually cut off by the depth
       bound — once the full tree fits, further rounds would just repeat. *)
    if !cex = None && !execs < budget && d < depth && deeper then
      rounds (min depth (d * 2))
  in
  rounds (min depth 4);
  { stats = stats (); counterexample = shrink_counterexample m !cex }
