(* Scenario builders: one per experiment in DESIGN.md's index. Each builds a
   Group, injects the experiment's schedule, runs to quiescence and returns
   the measurements the paper's §7.2 analysis talks about. *)

open Gmp_base
module Group = Gmp_runtime.Group
module Checker = Gmp_core.Checker
module Config = Gmp_core.Config
module Wire = Gmp_core.Wire

type measurement = {
  n : int; (* initial group size *)
  protocol_msgs : int; (* §7.2 accounting: update + reconfiguration *)
  update_msgs : int;
  reconf_msgs : int;
  views_installed : int; (* highest committed version *)
  violations : Gmp_core.Checker.violation list;
}

let count stats categories =
  List.fold_left
    (fun acc category -> acc + Gmp_net.Stats.sent stats ~category)
    0 categories

let measure ?(liveness = true) group =
  let stats = Group.stats group in
  let views_installed =
    List.fold_left
      (fun acc (_, ver, _) -> max acc ver)
      0
      (Group.surviving_views group)
  in
  { n = List.length (Group.initial group);
    protocol_msgs = count stats Wire.protocol_categories;
    update_msgs = count stats Wire.update_categories;
    reconf_msgs = count stats Wire.reconf_categories;
    views_installed;
    violations = Group.check ~liveness group }

(* E1 / Figure 1-2: a single crash of the junior member, handled by the
   plain two-phase update. Paper: at most 3n - 5 messages. *)
let single_crash ?(seed = 1) ~n () =
  let group = Group.create ~seed ~n () in
  Group.crash_at group 10.0 (Pid.make (n - 1));
  Group.run ~until:300.0 group;
  (measure group, group)

(* E2: two crashes detected together, so the second exclusion rides the
   commit's contingent invitation (compressed round). Paper: the compressed
   round costs at most 2n - 3. *)
let compressed_pair ?(seed = 1) ~n () =
  let group = Group.create ~seed ~n () in
  Group.crash_at group 10.0 (Pid.make (n - 1));
  Group.crash_at group 10.2 (Pid.make (n - 2));
  Group.run ~until:300.0 group;
  (measure group, group)

(* E3 / Figures 3-5: crash of the coordinator; the next-ranked process
   reconfigures. Paper: at most 5n - 9 messages for one successful
   reconfiguration. *)
let mgr_crash ?(seed = 1) ~n () =
  let group = Group.create ~seed ~n () in
  Group.crash_at group 10.0 (Pid.make 0);
  Group.run ~until:300.0 group;
  (measure group, group)

(* E4: the worst case - tau successive reconfigurers fail mid-protocol
   before one succeeds. Paper: O(n^2), about (5/2) n^2 messages in total.
   Slower links stretch the phases so each kill lands mid-protocol. *)
let cascade ?(seed = 1) ~n ~kills () =
  if kills >= n - 1 then invalid_arg "Scenario.cascade: too many kills";
  let config =
    { Config.default with
      Config.heartbeat_timeout = 8.0;
      Config.heartbeat_interval = 2.0 }
  in
  let delay = Gmp_net.Delay.uniform ~lo:1.0 ~hi:3.0 in
  let group = Group.create ~config ~delay ~seed ~n () in
  (* p0 dies first; each successor pi dies ~4s after it plausibly started
     reconfiguring (detection of p(i-1) takes ~ timeout). *)
  Group.crash_at group 10.0 (Pid.make 0);
  for i = 1 to kills - 1 do
    let time = 10.0 +. (float_of_int i *. 14.0) in
    Group.crash_at group time (Pid.make i)
  done;
  Group.run ~until:2000.0 group;
  (measure group, group)

(* E5: n - 1 successive failures, none of which is the coordinator; the
   exclusions chain through contingent invitations. Paper: (n-1)^2 messages
   in total, i.e. n - 1 per exclusion on average, vs an extra ~n/2 - 1 per
   exclusion for the plain two-phase algorithm. Uses the basic (no-majority)
   configuration, as the paper's §7.2 count does, and a scripted oracle so
   detections arrive one per round. *)
let sequence_all ?(seed = 1) ?(compressed = true) ~n () =
  let config =
    { (if compressed then Config.basic else { Config.basic with Config.compressed = false })
      with
      Config.heartbeats = false }
  in
  let delay = Gmp_net.Delay.constant 1.0 in
  let group = Group.create ~config ~delay ~seed ~n () in
  (* Victims p(n-1) ... p1 (junior to senior): victim x crashes, then the
     coordinator alone is told; everyone else learns through the protocol's
     own gossip (F2). The cadence lands each new detection mid-round so the
     commit can carry the next invitation. *)
  let mgr = Pid.make 0 in
  (* Cadence: with constant unit delay a round commits ~2s after its
     invitation, so a detection every 1.5s arrives mid-round and rides the
     commit's contingent invitation. *)
  List.iteri
    (fun i victim_id ->
      let victim = Pid.make victim_id in
      let crash_time = 5.0 +. (float_of_int i *. 1.5) in
      Group.crash_at group crash_time victim;
      Group.suspect_at group (crash_time +. 0.4) ~observer:mgr ~target:victim)
    (List.init (n - 1) (fun i -> n - 1 - i));
  Group.run ~until:2000.0 group;
  (measure ~liveness:false group, group)

(* E6: the same single-crash workload on the symmetric (Bruso-style)
   baseline. Paper: an order of magnitude more messages. *)
let symmetric_single_crash ?(seed = 1) ~n () =
  let module S = Gmp_baselines.Symmetric in
  let sym = S.create ~seed ~n () in
  S.crash_at sym 5.0 (Pid.make (n - 1));
  List.iter
    (fun i ->
      S.suspect_at sym
        (10.0 +. (0.1 *. float_of_int i))
        ~observer:(Pid.make i)
        ~target:(Pid.make (n - 1)))
    (List.init (n - 1) (fun i -> i));
  S.run ~until:300.0 sym;
  (S.messages sym, S.views sym)

(* C1 / Claim 7.1: the one-phase baseline under the proof's schedule -
   cross-suspicion across a partition - diverges (GMP-3 violation). *)
let one_phase_split ?(seed = 1) ~n () =
  let module O = Gmp_baselines.One_phase in
  let op = O.create ~seed ~n () in
  let r = Pid.make 1 and mgr = Pid.make 0 in
  let group_r = List.init (n / 2) (fun i -> Pid.make (2 * i + 1)) in
  let group_s =
    List.filter (fun p -> not (List.exists (Pid.equal p) group_r)) (O.initial op)
  in
  O.partition_at op 5.0 [ group_r; group_s ];
  (* r (in R) suspects Mgr; Mgr (in S) suspects r; each side is flooded with
     the respective one-phase removal. *)
  O.suspect_at op 10.0 ~observer:r ~target:mgr;
  List.iter
    (fun p ->
      if not (Pid.equal p mgr) then
        O.suspect_at op 10.0 ~observer:p ~target:mgr)
    group_r;
  O.suspect_at op 10.0 ~observer:mgr ~target:r;
  O.run ~until:200.0 op;
  let violations =
    Gmp_core.Checker.check_gmp23 (O.trace op)
    @ Gmp_core.Checker.check_gmp1 (O.trace op)
  in
  (violations, O.views op)

(* The same split schedule on the real protocol: the minority side blocks
   (no majority), the majority side excludes; no divergence. *)
let real_protocol_split ?(seed = 1) ~n () =
  let group = Group.create ~seed ~n () in
  let r = Pid.make 1 and mgr = Pid.make 0 in
  let group_r = List.init (n / 2) (fun i -> Pid.make (2 * i + 1)) in
  let group_s =
    List.filter
      (fun p -> not (List.exists (Pid.equal p) group_r))
      (Group.initial group)
  in
  Group.partition_at group 5.0 [ group_r; group_s ];
  Group.suspect_at group 10.0 ~observer:r ~target:mgr;
  Group.suspect_at group 10.0 ~observer:mgr ~target:r;
  Group.run ~until:400.0 group;
  (Checker.check_safety (Group.trace group) ~initial:(Group.initial group), group)

(* C2 / Figure 11 with n = 7: Proc = {m=p0 (Mgr), p=p1, r=p2, p3, p4, p5,
   q=p6}. Constant unit delay makes the timeline exact.

     4.5   partition {m, p3, q} | {p, r, p4, p5}
     5.0   m (suspecting q) invites Remove(q): reaches p3 (next := (q:m:1))
           and q (quits); the copies towards the other side sit parked.
     6.5   m crashes before p3's OK arrives: no commit; its parked invites
           die with it (never healed to it).
     9.0   p, believing m, p3 and q faulty, reconfigures: interrogates
           {r, p4, p5}; with itself that is 4 of 7 - a majority. Nobody it
           hears from saw m's proposal, so p proposes Remove(m).
    11.5   p is partitioned alone an instant after committing v1 = Proc-{m}:
           the commit reaches nobody - the paper's invisible commit. The
           first partition dissolves, reconnecting p3.
    20.0   r, believing m, p and q faulty, reconfigures: interrogates
           {p3, p4, p5} - 4 of 7 with itself. It sees m's proposal
           (q : m : 1) in p3's reply and the (? : p : ?) interrogation
           markers in p4, p5 - it knows p was reconfiguring but, with no
           proposal phase on record, not what p proposed nor whether p
           committed.

   The two-phase baseline guesses (propagates m's Remove(q)) and installs a
   version 1 different from the one p committed: GMP-3 violated. The real
   three-phase protocol under the identical schedule never lets p commit
   (its proposal round cannot reach a second majority through the
   partition), so no divergence is possible. *)

let fig11_n = 7

type fig11_driver = {
  d_suspect : float -> observer:Pid.t -> target:Pid.t -> unit;
  d_crash : float -> Pid.t -> unit;
  d_partition : float -> Pid.t list list -> unit;
  d_exclusion : float -> coordinator:Pid.t -> victim:Pid.t -> unit;
  d_reconf : float -> Pid.t -> unit;
}

let fig11_schedule d =
  let m = Pid.make 0
  and p = Pid.make 1
  and r = Pid.make 2
  and q = Pid.make 6 in
  d.d_partition 4.5 [ [ m; Pid.make 3; q ] ];
  d.d_suspect 5.0 ~observer:m ~target:q;
  d.d_exclusion 5.0 ~coordinator:m ~victim:q;
  d.d_crash 6.5 m;
  List.iter
    (fun target -> d.d_suspect 9.0 ~observer:p ~target)
    [ m; Pid.make 3; q ];
  d.d_reconf 9.1 p;
  d.d_partition 11.5 [ [ p ] ];
  List.iter (fun target -> d.d_suspect 20.0 ~observer:r ~target) [ m; p; q ];
  d.d_reconf 20.1 r

let two_phase_fig11 ?(seed = 1) () =
  let module T = Gmp_baselines.Two_phase_reconfig in
  let delay = Gmp_net.Delay.constant 1.0 in
  let tp = T.create ~delay ~seed ~n:fig11_n () in
  fig11_schedule
    { d_suspect = (fun t -> T.suspect_at tp t);
      d_crash = (fun t -> T.crash_at tp t);
      d_partition = (fun t -> T.partition_at tp t);
      d_exclusion = (fun t -> T.exclusion_at tp t);
      d_reconf = (fun t -> T.reconf_at tp t) };
  T.run ~until:200.0 tp;
  let violations = Gmp_core.Checker.check_gmp23 (T.trace tp) in
  (violations, T.views tp)

(* The same Figure-11 dilemma on the real protocol: p's commit needs two
   majorities, and the proposal phase leaves a trail GetStable can read; no
   divergence is possible. *)
let real_protocol_fig11 ?(seed = 1) () =
  let config = Config.scripted_only in
  let delay = Gmp_net.Delay.constant 1.0 in
  let group = Group.create ~config ~delay ~seed ~n:fig11_n () in
  fig11_schedule
    { d_suspect = (fun t -> Group.suspect_at group t);
      d_crash = (fun t -> Group.crash_at group t);
      d_partition = (fun t -> Group.partition_at group t);
      (* The real coordinator starts exclusions on its own, and initiation
         is automatic once HiFaulty is full. *)
      d_exclusion = (fun _ ~coordinator:_ ~victim:_ -> ());
      d_reconf = (fun _ _ -> ()) };
  Group.run ~until:400.0 group;
  (Checker.check_safety (Group.trace group) ~initial:(Group.initial group), group)

(* GetStable under two proposals (Props 5.5/5.6): a nine-process variant of
   the Figure 11 schedule in which the first initiator's {e proposal}
   reaches four witnesses before the initiator is isolated, so the final
   reconfigurer hears of {e both} in-flight proposals for version 1 - the
   dead Mgr's Remove(q) via p3, and p1's Remove(Mgr) via the witnesses - and
   must apply GetStable: propagate the lowest-ranked proposer's (p1's),
   the only one that could have been committed invisibly.

   Members (seniority order): m=p0, p=p1, r=p2, p3, p4, p5, q=p6, p7, p8.
   Majority of 9 is 5. m's invite reaches only {p3, q}; p's proposal
   reaches {p4, p5, p7, p8} (it believes m, p3, q and r faulty, which is
   exactly what keeps its respondent majority disjoint from m's witnesses);
   r's interrogation reaches p3 and the witnesses, exposing both. *)
let real_protocol_two_proposals ?(seed = 1) () =
  let n = 9 in
  let config = Config.scripted_only in
  let delay = Gmp_net.Delay.constant 1.0 in
  let group = Group.create ~config ~delay ~seed ~n () in
  let m = Pid.make 0
  and p = Pid.make 1
  and r = Pid.make 2
  and q = Pid.make 6 in
  Group.partition_at group 4.5 [ [ m; Pid.make 3; q ] ];
  Group.suspect_at group 5.0 ~observer:m ~target:q;
  Group.crash_at group 6.5 m;
  List.iter
    (fun target -> Group.suspect_at group 9.0 ~observer:p ~target)
    [ m; Pid.make 3; q ];
  (* p completes its interrogation at ~11 and broadcasts Remove(m). Let the
     proposal land only at witnesses p4 and p5 (the copies towards r, p7, p8
     park in the 11.5 partition), and keep p's returning OKs short of a
     majority so the proposal can never commit. At 13.5 only p stays
     isolated. *)
  Group.partition_at group 11.5 [ [ p; Pid.make 4; Pid.make 5 ] ];
  Group.partition_at group 13.5 [ [ p ] ];
  List.iter
    (fun target -> Group.suspect_at group 20.0 ~observer:r ~target)
    [ p; q ];
  Group.run ~until:400.0 group;
  (Checker.check_safety (Group.trace group) ~initial:(Group.initial group), group)

(* F4: two concurrent reconfiguration initiators (Table 1, row 3). The
   junior initiator's interrogation kills the senior one; a unique view
   survives. *)
let concurrent_initiators ?(seed = 1) ~n () =
  let config = Config.default in
  let group = Group.create ~config ~seed ~n () in
  Group.crash_at group 10.0 (Pid.make 0);
  (* p1 and p2 both come to believe everyone above them faulty. *)
  Group.suspect_at group 20.0 ~observer:(Pid.make 2) ~target:(Pid.make 1);
  Group.run ~until:400.0 group;
  (measure group, group)

(* ---- E-scale scenarios (the bench's BENCH_scale.json section) ----

   Dedicated entry points instead of reusing [single_crash]: the paper-
   envelope scenarios keep their long horizons for fidelity, while the scale
   runs trim the horizon to just past convergence and raise the livelock
   guard (at n = 256 the heartbeat traffic alone is ~32k messages per
   interval, so a 300s horizon would trip the default 10M-step guard). *)

let scale_max_steps = 200_000_000

let scale_single_crash ?(seed = 1) ~n () =
  let group = Group.create ~seed ~n () in
  Group.crash_at group 10.0 (Pid.make (n - 1));
  Group.run ~max_steps:scale_max_steps ~until:120.0 group;
  (measure group, group)

(* Deterministic churn at scale: coordinator crash, ~n/6 scattered crashes
   spaced out enough for each exclusion to land, and three late joins, under
   heavy-tailed delays (the test suite's n=32 churn, generalized over n). *)
let churn ?(seed = 123) ~n () =
  if n < 8 then invalid_arg "Scenario.churn: need n >= 8";
  let delay = Gmp_net.Delay.exponential ~mean:1.0 in
  let config = { Config.default with Config.heartbeat_timeout = 15.0 } in
  let group = Group.create ~config ~delay ~seed ~n () in
  Group.crash_at group 10.0 (Pid.make 0);
  let crashes = max 1 (n / 6) in
  for i = 1 to crashes do
    (* Victims spread across the rank order, never the most senior
       survivors (the join contacts below must stay alive). *)
    let victim = Pid.make (1 + (i * (n - 5) / (crashes + 1))) in
    Group.crash_at group (25.0 +. (15.0 *. float_of_int i)) victim
  done;
  for j = 1 to 3 do
    Group.join_at group
      (30.0 +. (30.0 *. float_of_int j))
      (Pid.make (1000 + j))
      ~contact:(Pid.make (n - 1 - j))
  done;
  let horizon = 25.0 +. (15.0 *. float_of_int crashes) +. 120.0 in
  Group.run ~max_steps:scale_max_steps ~until:horizon group;
  (measure group, group)

(* Randomized churn (used by property tests and the GMP-properties bench). *)
let random_churn ~seed () =
  let rng = Gmp_sim.Rng.create seed in
  let n = 4 + Gmp_sim.Rng.int rng 6 in
  let group = Group.create ~seed ~n () in
  let crashes = Gmp_sim.Rng.int rng ((n / 2) + 1) in
  let victims = ref [] in
  for _ = 1 to crashes do
    let candidate = Pid.make (Gmp_sim.Rng.int rng n) in
    if not (List.exists (Pid.equal candidate) !victims) then
      victims := candidate :: !victims
  done;
  let cascade = Gmp_sim.Rng.bool rng in
  List.iteri
    (fun i pid ->
      let time =
        if cascade then 10.0 +. (float_of_int i *. Gmp_sim.Rng.float rng 6.0)
        else 5.0 +. Gmp_sim.Rng.float rng 80.0
      in
      let pid = if cascade then Pid.make i else pid in
      Group.crash_at group time pid)
    !victims;
  let joins = Gmp_sim.Rng.int rng 3 in
  for j = 1 to joins do
    let contact = Pid.make (Gmp_sim.Rng.int rng n) in
    let time = 5.0 +. Gmp_sim.Rng.float rng 80.0 in
    Group.join_at group time (Pid.make (100 + j)) ~contact
  done;
  let spurious = Gmp_sim.Rng.int rng 2 in
  for _ = 1 to spurious do
    let observer = Pid.make (Gmp_sim.Rng.int rng n) in
    let target = Pid.make (Gmp_sim.Rng.int rng n) in
    if not (Pid.equal observer target) then
      Group.suspect_at group
        (5.0 +. Gmp_sim.Rng.float rng 80.0)
        ~observer ~target
  done;
  Group.run ~until:600.0 group;
  (measure group, group)
