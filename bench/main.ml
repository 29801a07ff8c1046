(* Benchmark and reproduction harness.

   One section per artifact of the paper's quantitative content (see
   DESIGN.md's per-experiment index): Table 1, the Section 7.2 message
   complexity analysis (best cases, worst case, compressed sequences, the
   symmetric comparison), the Section 7.3 optimality claims (one-phase and
   two-phase counterexamples, Figure 11), the figure scenarios (3, 4, 7),
   the GMP property sweep, and the Appendix knowledge checks. Each section
   prints the paper's prediction next to the measured value, and every
   printed verdict is a gate: a mismatch makes the run exit 1.

   Everything here is deterministic; timing lives in gmpbench
   (benchmark/). Run: dune exec bench/main.exe [-- --quick] [-- --jobs N] *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group
open Gmp_workload

let pr = Fmt.pr

(* Failed verdicts, newest first. The paper sections run on the main
   domain only; the E-scale cells return theirs as data. *)
let failures = ref []

let current_section = ref ""

let section title =
  current_section := title;
  pr "@.=== %s ===@." title

let verdict ~ok ~bad =
  if ok then "OK"
  else begin
    failures := Fmt.str "%s: %s" !current_section bad :: !failures;
    bad
  end

let pass ok = verdict ~ok ~bad:"MISMATCH"

(* ---------------------------------------------------------------- *)
(* Table 1: multiple reconfiguration initiations                    *)
(* ---------------------------------------------------------------- *)

let table1_row ~p_failed ~q_thinks_p_failed =
  let group = Group.create ~seed:30 ~n:4 () in
  let mgr = Pid.make 0 and pp = Pid.make 1 and qq = Pid.make 2 in
  Group.crash_at group 5.0 mgr;
  if p_failed then Group.crash_at group 6.0 pp;
  if q_thinks_p_failed then Group.suspect_at group 16.0 ~observer:qq ~target:pp;
  Group.run ~until:400.0 group;
  let initiated who =
    List.exists
      (fun (e : Trace.event) ->
        Pid.equal e.Trace.owner who
        &&
        match e.Trace.kind with
        | Trace.Initiated_reconf _ -> true
        | _ -> false)
      (Trace.events (Group.trace group))
  in
  let violations = Checker.check_safety (Group.trace group)
      ~initial:(Group.initial group) in
  (initiated pp, initiated qq, List.length violations)

let table1 () =
  section "Table 1: multiple reconfiguration initiations (n=4, Mgr crashed)";
  pr "%-10s %-12s | %-12s %-12s | %-14s %-14s %s@." "p actual" "q thinks p"
    "paper: q?" "paper: p?" "measured: q" "measured: p" "safety";
  let row (p_failed, q_thinks, paper_q, paper_p) =
    let p_init, q_init, viol = table1_row ~p_failed ~q_thinks_p_failed:q_thinks in
    pr "%-10s %-12s | %-12s %-12s | %-14b %-14b %s@."
      (if p_failed then "Failed" else "Up")
      (if q_thinks then "Failed" else "Up")
      paper_q paper_p q_init p_init
      (verdict ~ok:(viol = 0) ~bad:"VIOLATED")
  in
  List.iter row
    [ (false, false, "No", "Yes");
      (true, false, "Eventually", "No");
      (false, true, "Yes", "Yes");
      (true, true, "Yes", "No") ]

(* ---------------------------------------------------------------- *)
(* E1-E3: best-case message complexities                             *)
(* ---------------------------------------------------------------- *)

let sizes = [ 4; 8; 16; 32; 64 ]

let e1 () =
  section "E1 (Fig 1/2, s7.2): plain two-phase exclusion, paper: 3n-5";
  pr "%-6s %-10s %-10s %s@." "n" "measured" "paper" "";
  List.iter
    (fun n ->
      let m, _ = Scenario.single_crash ~n () in
      let paper = (3 * n) - 5 in
      pr "%-6d %-10d %-10d %s  (violations: %d)@." n m.Scenario.protocol_msgs
        paper
        (pass (m.Scenario.protocol_msgs = paper))
        (List.length m.Scenario.violations))
    sizes

let e2 () =
  section "E2 (s3.1/s7.2): compressed second exclusion, paper: first 3n-5 + second <= 2(n-1)-3";
  pr "%-6s %-10s %-12s %s@." "n" "measured" "paper bound" "";
  List.iter
    (fun n ->
      let m, _ = Scenario.compressed_pair ~n () in
      let bound = (3 * n) - 5 + ((2 * (n - 1)) - 3) in
      pr "%-6d %-10d %-12d %s  (violations: %d)@." n m.Scenario.protocol_msgs
        bound
        (pass (m.Scenario.protocol_msgs <= bound))
        (List.length m.Scenario.violations))
    sizes

let e3 () =
  section "E3 (Fig 3-5, s7.2): one successful reconfiguration, paper: 5n-9";
  pr "%-6s %-10s %-10s %s@." "n" "measured" "paper" "";
  List.iter
    (fun n ->
      let m, _ = Scenario.mgr_crash ~n () in
      let paper = (5 * n) - 9 in
      pr "%-6d %-10d %-10d %s  (violations: %d)@." n m.Scenario.protocol_msgs
        paper
        (pass (m.Scenario.protocol_msgs = paper))
        (List.length m.Scenario.violations))
    sizes

(* ---------------------------------------------------------------- *)
(* E4: worst case - successive failed reconfigurations               *)
(* ---------------------------------------------------------------- *)

let e4 () =
  section "E4 (s7.2 worst case): tau successive failed reconfigurations, paper: O(n^2), ~(5/2)n^2 envelope";
  pr "%-6s %-7s %-10s %-14s %s@." "n" "kills" "measured" "(5/2)n^2" "";
  List.iter
    (fun n ->
      let kills = (n / 2) - 1 in
      let m, _ = Scenario.cascade ~n ~kills () in
      let envelope = 5 * n * n / 2 in
      pr "%-6d %-7d %-10d %-14d %s  (violations: %d)@." n kills
        m.Scenario.protocol_msgs envelope
        (pass (m.Scenario.protocol_msgs <= envelope))
        (List.length m.Scenario.violations))
    [ 8; 12; 16; 24 ];
  (* Quadratic growth check across the sweep. *)
  let cost n = (fst (Scenario.cascade ~n ~kills:((n / 2) - 1) ())).Scenario.protocol_msgs in
  let c8 = cost 8 and c16 = cost 16 in
  pr "growth 8->16: x%.1f (quadratic predicts ~x4)@."
    (float_of_int c16 /. float_of_int c8)

(* ---------------------------------------------------------------- *)
(* E5: n-1 successive failures - compression savings                 *)
(* ---------------------------------------------------------------- *)

let e5 () =
  section "E5 (s7.2): n-1 successive failures, paper: compressed total (n-1)^2 i.e. avg n-1 per exclusion; plain two-phase pays ~n/2-1 more per exclusion";
  pr "%-6s %-12s %-10s %-14s %-14s %s@." "n" "compressed" "(n-1)^2" "uncompressed"
    "saving/excl" "";
  List.iter
    (fun n ->
      let mc, _ = Scenario.sequence_all ~compressed:true ~n () in
      let mu, _ = Scenario.sequence_all ~compressed:false ~n () in
      let paper = (n - 1) * (n - 1) in
      let saving =
        float_of_int (mu.Scenario.protocol_msgs - mc.Scenario.protocol_msgs)
        /. float_of_int (n - 1)
      in
      pr "%-6d %-12d %-10d %-14d %-14.1f %s@." n mc.Scenario.protocol_msgs paper
        mu.Scenario.protocol_msgs saving
        (pass (mc.Scenario.protocol_msgs <= paper
               && mc.Scenario.protocol_msgs < mu.Scenario.protocol_msgs)))
    [ 4; 8; 16; 32 ]

(* ---------------------------------------------------------------- *)
(* E6: symmetric (Bruso-style) baseline                              *)
(* ---------------------------------------------------------------- *)

let e6 () =
  section "E6 (s1/s8): symmetric baseline vs this protocol, paper: 'an order of magnitude more messages'";
  pr "%-6s %-12s %-10s %-8s@." "n" "symmetric" "ours" "ratio";
  List.iter
    (fun n ->
      let sym, _ = Scenario.symmetric_single_crash ~n () in
      let ours, _ = Scenario.single_crash ~n () in
      pr "%-6d %-12d %-10d x%.1f@." n sym ours.Scenario.protocol_msgs
        (float_of_int sym /. float_of_int ours.Scenario.protocol_msgs))
    [ 8; 16; 32; 64 ]

(* ---------------------------------------------------------------- *)
(* C1 / C2: the optimality claims                                    *)
(* ---------------------------------------------------------------- *)

let c1 () =
  section "C1 (Claim 7.1): one-phase update under the proof's split schedule";
  let violations, views = Scenario.one_phase_split ~n:5 () in
  pr "one-phase baseline: %d GMP violations (paper: GMP-3 must break)  %s@."
    (List.length violations)
    (pass (violations <> []));
  List.iter
    (fun (p, v, members) ->
      pr "  %-4s v%d {%s}@." (Pid.to_string p) v
        (String.concat "," (List.map Pid.to_string members)))
    views;
  let violations', _ = Scenario.real_protocol_split ~n:5 () in
  pr "three-phase protocol, same schedule: %d violations  %s@."
    (List.length violations')
    (pass (violations' = []))

let c2 () =
  section "C2 (Claim 7.2 / Figure 11): two-phase reconfiguration must guess";
  let violations, views = Scenario.two_phase_fig11 () in
  pr "two-phase baseline: %d GMP violations (paper: GMP-3 must break)  %s@."
    (List.length violations)
    (pass (violations <> []));
  List.iter
    (fun (p, v, members) ->
      pr "  %-4s v%d {%s}@." (Pid.to_string p) v
        (String.concat "," (List.map Pid.to_string members)))
    views;
  let violations', group = Scenario.real_protocol_fig11 () in
  pr "three-phase protocol, same schedule: %d violations  %s@."
    (List.length violations')
    (pass (violations' = []));
  let p1_installs = Trace.installs_of (Group.trace group) (Pid.make 1) in
  pr "  (the would-be invisible committer is blocked at v%d)@."
    (List.fold_left (fun acc (v, _) -> max acc v) 0 p1_installs);
  let viol2, g2 = Scenario.real_protocol_two_proposals () in
  pr "GetStable variant (two proposals visible): %d violations  %s@."
    (List.length viol2) (pass (viol2 = []));
  (match List.assoc_opt 1 (Trace.installs_of (Group.trace g2) (Pid.make 2)) with
   | Some members ->
     pr "  v1 = {%s} (propagates the junior proposer's Remove(Mgr))@."
       (String.concat "," (List.map Pid.to_string members))
   | None -> pr "  v1 never installed?!@.")

(* ---------------------------------------------------------------- *)
(* F3 / F4 / F7: figure scenarios                                    *)
(* ---------------------------------------------------------------- *)

let f3 () =
  section "F3 (Figure 3): Mgr crash around its commit broadcast";
  let all_ok = ref true in
  List.iter
    (fun tenths ->
      let group = Group.create ~seed:(20 + tenths) ~n:6 () in
      Group.crash_at group 10.0 (Pid.make 5);
      Group.crash_at group (21.0 +. (0.5 *. float_of_int tenths)) (Pid.make 0);
      Group.run ~until:500.0 group;
      let violations = Group.check group in
      if violations <> [] then all_ok := false)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  pr "10 crash offsets across the commit window: unique view restored every time  %s@."
    (pass !all_ok)

let f4 () =
  section "F4 (Figure 4): concurrent reconfiguration initiators";
  let m, group = Scenario.concurrent_initiators ~n:6 () in
  let initiators =
    List.filter
      (fun (e : Trace.event) ->
        match e.Trace.kind with Trace.Initiated_reconf _ -> true | _ -> false)
      (Trace.events (Group.trace group))
  in
  pr "initiations observed: %d; violations: %d; views converged: %s  %s@."
    (List.length initiators)
    (List.length m.Scenario.violations)
    (match Group.agreed_view group with
     | Some (v, members) ->
       Fmt.str "v%d {%s}" v (String.concat "," (List.map Pid.to_string members))
     | None -> "NO")
    (pass (m.Scenario.violations = []))

let f7 () =
  section "F7 (Figure 7 / Props 5.1-5.4) and P1 (Theorems 6.1-6.2): GMP sweep under random churn";
  let seeds = 200 in
  let bad = ref 0 in
  for seed = 1 to seeds do
    let m, _ = Scenario.random_churn ~seed () in
    if m.Scenario.violations <> [] then incr bad
  done;
  pr "%d randomized churn runs (crashes, joins, spurious suspicions, cascades): %d with violations  %s@."
    seeds !bad (pass (!bad = 0))

(* ---------------------------------------------------------------- *)
(* A1: Appendix - epistemic analysis                                 *)
(* ---------------------------------------------------------------- *)

let a1 () =
  section "A1 (Appendix): knowledge checks on traces";
  let clean = Group.create ~seed:60 ~n:6 () in
  Group.crash_at clean 10.0 (Pid.make 5);
  Group.crash_at clean 40.0 (Pid.make 4);
  Group.run ~until:300.0 clean;
  let r1 = Epistemic.analyze (Group.trace clean) in
  pr "no-Mgr-failure run:     %a  %s@." Epistemic.pp_report r1
    (pass (Epistemic.ok r1));
  let reconf = Group.create ~seed:61 ~n:6 () in
  Group.crash_at reconf 10.0 (Pid.make 0);
  Group.run ~until:300.0 reconf;
  let r2 = Epistemic.analyze ~eq4:false (Group.trace reconf) in
  pr "Mgr-failure run (cuts): %a  %s@." Epistemic.pp_report r2
    (pass (Epistemic.ok r2));
  (* Tense-logic model checking on the clean run: Equation 4 for every
     process/version, and the E^y unwinding down to the initial view. *)
  let run = Knowledge.of_trace (Group.trace clean) in
  let eq4_ok =
    List.for_all
      (fun pid ->
        List.for_all
          (fun x -> Knowledge.valid run (Knowledge.equation_4 run ~p:pid ~x))
          [ 1; 2 ])
      (Knowledge.pids run)
  in
  pr "Equation 4 (tense logic, all p, x in {1,2}):  %s@." (pass eq4_ok);
  let unwind_ok =
    match Knowledge.unwinding run ~x:2 ~y:2 with
    | Some f -> Knowledge.valid run f
    | None -> false
  in
  pr "E^2 unwinding IsSysView(2) => (E<past>)^2 IsSysView(0):  %s@."
    (pass unwind_ok)

(* ---------------------------------------------------------------- *)
(* Ablations: design choices the paper leaves open                   *)
(* ---------------------------------------------------------------- *)

(* The repo's one latency definition ([Gmp_core.Latency]): the slowest
   survivor's crash->view-installed time for [victim] in one run, or [None]
   when no survivor's view still held the victim at its crash (a spurious
   exclusion got there first). *)
let slowest_install group victim =
  List.fold_left
    (fun acc (q, d) ->
      if not (Pid.equal q victim) then acc
      else match acc with Some a -> Some (Float.max a d) | None -> Some d)
    None
    (Latency.view_installed (Group.trace group))

(* AB1: detector sensitivity. The paper treats detection as an oracle
   ("time is only an approximate tool"); any real timeout detector trades
   recovery latency against spurious exclusions. Sweep the timeout under
   heavy-tailed delays and measure both sides of the trade. *)
let ab1 () =
  section "AB1 (ablation): heartbeat timeout vs detection latency and spurious exclusions";
  pr "%-9s %-22s %-24s %s@." "timeout" "crash-recovery latency"
    "spurious exclusions" "no sample";
  let jittery = Gmp_net.Delay.exponential ~mean:1.0 in
  List.iter
    (fun timeout ->
      let config =
        { Config.default with
          Config.heartbeat_timeout = timeout;
          Config.heartbeat_interval = 1.0 }
      in
      (* (a) latency: crash p(n-1) at t=20; how long until the slowest
             survivor installs a view without it? *)
      let runs =
        List.filter_map
          (fun seed ->
            let group = Group.create ~config ~delay:jittery ~seed ~n:6 () in
            Group.crash_at group 20.0 (Pid.make 5);
            Group.run ~until:400.0 group;
            if Group.check group <> [] then None
            else Some (slowest_install group (Pid.make 5)))
          (List.init 30 (fun i -> 100 + i))
      in
      let latencies = List.filter_map Fun.id runs in
      let unsampled = List.length runs - List.length latencies in
      (* (b) spurious exclusions: no crash at all; count processes that got
             excluded anyway because jitter outran the timeout. *)
      let spurious =
        List.fold_left
          (fun acc seed ->
            let group = Group.create ~config ~delay:jittery ~seed ~n:6 () in
            Group.run ~until:300.0 group;
            let survivors = List.length (Group.operational_members group) in
            acc + (6 - survivors))
          0
          (List.init 30 (fun i -> 200 + i))
      in
      match latencies with
      | [] ->
        pr "%-9.1f (no sampled run at this timeout)      %-24s %d@." timeout
          (Fmt.str "%d over 30 quiet runs" spurious) unsampled
      | _ ->
        let s = Gmp_sim.Stat.of_list latencies in
        pr "%-9.1f p50=%6.1f p90=%6.1f      %-24s %d@." timeout
          s.Gmp_sim.Stat.p50 s.Gmp_sim.Stat.p90
          (Fmt.str "%d over 30 quiet runs" spurious) unsampled)
    [ 3.0; 5.0; 8.0; 12.0; 20.0 ]

(* AB2: the §8 future-work optimization (pre-sent interrogation replies
   plus an initiation grace period). Reported as measured, including where
   it loses: the grace delays recovery, during which further failures
   accumulate. *)
let ab2 () =
  section "AB2 (ablation, s8 future work): reconfiguration phase reuse";
  pr "%-6s %-7s %-12s %-12s@." "n" "kills" "baseline" "with reuse";
  List.iter
    (fun n ->
      let kills = (n / 2) - 1 in
      let run config =
        let config = { config with Config.heartbeat_timeout = 8.0 } in
        let delay = Gmp_net.Delay.uniform ~lo:1.0 ~hi:3.0 in
        let group = Group.create ~config ~delay ~seed:1 ~n () in
        Group.crash_at group 10.0 (Pid.make 0);
        for i = 1 to kills - 1 do
          Group.crash_at group (10.0 +. (float_of_int i *. 14.0)) (Pid.make i)
        done;
        Group.run ~until:2000.0 group;
        (Group.protocol_messages group, List.length (Group.check group))
      in
      let base, v1 = run Config.default in
      let reuse, v2 = run Config.optimized in
      pr "%-6d %-7d %-12d %-12d %s@." n kills base reuse
        (if v1 = 0 && v2 = 0 then "OK (GMP holds in both)"
         else
           verdict ~ok:false
             ~bad:(Fmt.str "VIOLATIONS base=%d reuse=%d" v1 v2)))
    [ 8; 16; 24 ];
  pr "(reuse helps small cascades; at larger n its grace period lets more@.";
  pr " failures pile up per round - the trade-off the paper left open)@."

(* AB3: view-change latency distributions across seeds: exclusion vs
   reconfiguration (recovering from a coordinator crash costs one extra
   detection timeout plus two extra phases). *)
let ab3 () =
  section "AB3: view-change latency (crash at t=20 to last survivor's install of v1)";
  let latency ~crash_mgr seed =
    let victim = Pid.make (if crash_mgr then 0 else 7) in
    let group = Group.create ~seed ~n:8 () in
    Group.crash_at group 20.0 victim;
    Group.run ~until:400.0 group;
    if Group.check group <> [] then None else slowest_install group victim
  in
  let seeds = List.init 100 (fun i -> 300 + i) in
  let excl = List.filter_map (latency ~crash_mgr:false) seeds in
  let reconf = List.filter_map (latency ~crash_mgr:true) seeds in
  pr "exclusion (junior crash):    %a@." Gmp_sim.Stat.pp (Gmp_sim.Stat.of_list excl);
  pr "reconfiguration (mgr crash): %a@." Gmp_sim.Stat.pp
    (Gmp_sim.Stat.of_list reconf)

(* AB4: the ARQ substrate - the cost of *implementing* the paper's assumed
   reliable FIFO channel over a lossy medium (datagrams per delivered
   message as loss grows). *)
let ab4 () =
  section "AB4: implementing the assumed channel (alternating-bit over loss)";
  pr "%-8s %-18s %-16s@." "loss" "datagrams/message" "retransmissions";
  List.iter
    (fun loss ->
      let engine = Gmp_sim.Engine.create () in
      let rng = Gmp_sim.Rng.create 17 in
      let delay = Gmp_net.Delay.uniform ~lo:0.5 ~hi:1.5 in
      let arq =
        Gmp_net.Arq.create ~loss ~duplicate:0.05 ~rto:5.0 ~engine ~rng ~delay ()
      in
      let received = ref 0 in
      Gmp_net.Arq.set_handler arq (fun ~dst:_ ~src:_ _ -> incr received);
      let n = 200 in
      for i = 1 to n do
        Gmp_net.Arq.send arq ~src:(Pid.make 0) ~dst:(Pid.make 1) i
      done;
      Gmp_sim.Engine.run engine;
      pr "%-8.2f %-18.2f %-16d %s@." loss
        (float_of_int (Gmp_net.Arq.datagrams_sent arq) /. float_of_int n)
        (Gmp_net.Arq.retransmissions arq)
        (if !received = n then "(all delivered in order)"
         else verdict ~ok:false ~bad:"LOST DATA"))
    [ 0.0; 0.1; 0.3; 0.5; 0.7 ]

(* ---------------------------------------------------------------- *)
(* E-scale: exact simulator counts at n in {64, 128, 256}           *)
(* ---------------------------------------------------------------- *)

(* The §7.2 envelopes stop at n = 64 because the seed simulator did; this
   section pins the simulator's exact counts at n up to 256 (events fired,
   peak heap entries, messages, trace length, minor words per event) in
   BENCH_scale.json and against bench/expectations.ml. *)

module J = Gmp_base.Json

let total_sent stats =
  List.fold_left
    (fun acc (_, sent, _, _) -> acc + sent)
    0
    (Gmp_net.Stats.snapshot stats)

(* One E-scale cell, run to completion with its measurements. Pure by
   construction — the formatted table row, the JSON object and any
   expectation drift come back as data — so cells can run on worker
   domains and the main domain prints them in canonical order. *)
type scale_cell = { c_row : string; c_json : J.t; c_fails : string list }

let scale_run ~name ~n scenario =
  let minor0 = Gc.minor_words () in
  let _, group = scenario ~n () in
  let minor_words = Gc.minor_words () -. minor0 in
  let violations = Group.check group in
  let engine = Group.engine group in
  let trace = Group.trace group in
  let events_fired = Gmp_sim.Engine.fired_events engine in
  let messages_sent = total_sent (Group.stats group) in
  let trace_events = Trace.length trace in
  let words_per_event = minor_words /. float_of_int (max 1 events_fired) in
  let row =
    Fmt.str "%-14s %-6d %10d %10d %10d %9d %9.0f %s" name n events_fired
      (Gmp_sim.Engine.peak_queue_length engine)
      messages_sent trace_events words_per_event
      (if violations = [] then "OK"
       else Fmt.str "%d VIOLATIONS" (List.length violations))
  in
  let fails =
    Expectations.check ~name ~n ~events_fired ~messages_sent ~trace_events
      ~words_per_event
    @
    match violations with
    | [] -> []
    | vs -> [ Fmt.str "%s n=%d: %d GMP violations" name n (List.length vs) ]
  in
  let json =
    J.obj
      [ ("name", J.string name);
         ("n", J.int n);
         ("events_fired", J.int events_fired);
         ("peak_heap_entries", J.int (Gmp_sim.Engine.peak_queue_length engine));
         ("final_heap_entries", J.int (Gmp_sim.Engine.queue_length engine));
         ("live_timers", J.int (Gmp_sim.Engine.pending_events engine));
         ("messages_sent", J.int messages_sent);
         ("trace_events", J.int trace_events);
         ("minor_words", J.float minor_words);
         ("minor_words_per_event", J.float words_per_event);
         ("violations", J.int (List.length violations));
         (* deterministic snapshot (counters, detection-latency histograms):
            same seed, same cell -> byte-identical text, any jobs value *)
         ("metrics", Gmp_obs.Obs.Snapshot.to_json (Group.metrics group)) ]
  in
  { c_row = row; c_json = json; c_fails = fails }

(* Farm the cells to [jobs] worker domains pulling from a shared index.
   The pool runs even at jobs = 1 so every jobs value takes the same code
   path: each cell starts from a fresh per-domain vector-clock registry,
   and all its measurements (Gc.minor_words is per-domain on OCaml 5) are
   functions of the cell alone — the emitted JSON is bit-identical for any
   job count, which CI checks with diff. The global stats category registry
   is frozen across the pool: module-init time interned every category, so
   workers only do (safe) concurrent lookups. *)
let run_cells ~jobs cells =
  let items = Array.of_list cells in
  let results = Array.make (Array.length items) None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length items then begin
        Gmp_causality.Vector_clock.fresh_registry ();
        let name, n, scenario = items.(i) in
        results.(i) <- Some (scale_run ~name ~n scenario);
        loop ()
      end
    in
    loop ()
  in
  Gmp_platform.Stats.freeze ();
  let domains =
    List.init (min jobs (max 1 (Array.length items))) (fun _ ->
        Domain.spawn worker)
  in
  List.iter Domain.join domains;
  Gmp_platform.Stats.thaw ();
  Array.to_list results
  |> List.map (function
       | Some c -> c
       | None -> failwith "bench: scale cell never ran")

let scale ~quick ~jobs () =
  section
    (if quick then "E-scale (quick): exact simulator counts"
     else "E-scale: exact simulator counts (indexed traces, compacted timers)");
  (* Churn cost grows as n^2 x horizon (the horizon itself scales with the
     crash count), so n=256 churn is minutes of wall-clock; the single-crash
     workload carries the n=256 point instead. *)
  let single_sizes = if quick then [ 64; 128 ] else [ 64; 128; 256 ] in
  let churn_sizes = if quick then [ 32 ] else [ 32; 64; 128 ] in
  let cells =
    List.map
      (fun n ->
        ("single-crash", n, fun ~n () -> Scenario.scale_single_crash ~n ()))
      single_sizes
    @ List.map
        (fun n -> ("churn", n, fun ~n () -> Scenario.churn ~n ()))
        churn_sizes
  in
  pr "%d cells on %d worker domain(s)@." (List.length cells) jobs;
  pr "%-14s %-6s %10s %10s %10s %9s %9s@." "scenario" "n" "events"
    "peak-heap" "messages" "trace" "words/ev";
  let runs = run_cells ~jobs cells in
  List.iter (fun c -> pr "%s@." c.c_row) runs;
  let doc =
    J.obj
      [ ("quick", J.bool quick);
        ("scenarios", J.list (List.map (fun c -> c.c_json) runs)) ]
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  pr "wrote BENCH_scale.json@.";
  List.concat_map (fun c -> c.c_fails) runs

(* Flags: --quick (the CI smoke subset) and --jobs N / --jobs=N, the
   worker-domain count for the E-scale pool. --jobs 0 autodetects the core
   count; the default of 1 still goes through the pool so the emitted JSON
   is identical for every value. Anything else is rejected. *)
let usage msg =
  Fmt.epr "bench: %s@.usage: main.exe [--quick] [--jobs N]@." msg;
  exit 2

let parse_args () =
  let quick = ref false and jobs = ref 1 in
  let set_jobs raw =
    match int_of_string_opt raw with
    | None -> usage (Fmt.str "invalid --jobs value %S" raw)
    | Some j when j < 0 -> usage (Fmt.str "--jobs must be >= 0, got %d" j)
    | Some 0 -> jobs := Domain.recommended_domain_count ()
    | Some j -> jobs := j
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | [ "--jobs" ] -> usage "--jobs needs a value"
    | "--jobs" :: raw :: rest ->
      set_jobs raw;
      go rest
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      go rest
    | arg :: _ -> usage (Fmt.str "unknown argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!quick, !jobs)

let () =
  let quick, jobs = parse_args () in
  pr "Reproduction harness: Ricciardi & Birman, 'Using Process Groups to Implement@.";
  pr "Failure Detection in Asynchronous Environments' (PODC 1991 / TR 91-1188)@.";
  let scale_failures =
    if quick then begin
      (* CI smoke mode: the cheap paper sections plus the scale section at its
         smallest sizes, so count drift and envelope breaks fail fast. *)
      table1 ();
      e1 ();
      e3 ();
      c1 ();
      c2 ();
      a1 ();
      scale ~quick:true ~jobs ()
    end
    else begin
      table1 ();
      e1 ();
      e2 ();
      e3 ();
      e4 ();
      e5 ();
      e6 ();
      c1 ();
      c2 ();
      f3 ();
      f4 ();
      f7 ();
      a1 ();
      ab1 ();
      ab2 ();
      ab3 ();
      ab4 ();
      scale ~quick:false ~jobs ()
    end
  in
  pr "@.done.@.";
  match List.rev_append !failures scale_failures with
  | [] -> ()
  | failures ->
    pr "@.%d failed verdict(s) (paper sections, bench/expectations.ml):@."
      (List.length failures);
    List.iter (fun msg -> pr "  %s@." msg) failures;
    exit 1
