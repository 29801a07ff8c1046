(* Tests for the unified observability layer: registry semantics, the
   deterministic snapshot (merge laws, JSON round-trip, quantiles), the
   latency derivations, and the metrics plumbing through the simulator
   and the live trace log. *)

open Gmp_base
open Gmp_obs
module Group = Gmp_runtime.Group
module Trace = Gmp_core.Trace
module Latency = Gmp_core.Latency
module Vector_clock = Gmp_causality.Vector_clock

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let qtest = QCheck_alcotest.to_alcotest

let compact s = Json.to_compact_string (Obs.Snapshot.to_json s)

(* ---- registry basics ---- *)

let test_counter_gauge () =
  let r = Obs.create () in
  let c = Obs.counter r "c" in
  Obs.inc c;
  Obs.inc ~by:4 c;
  check int "counter accumulates" 5 (Obs.counter_value c);
  check bool "counter is idempotently named" true (Obs.counter r "c" == c);
  let g = Obs.gauge r "g" in
  Obs.set_gauge g 2.5;
  check bool "gauge holds" true (Obs.gauge_value g = 2.5);
  (match Obs.counter r "g" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "name reuse across kinds must raise");
  let s = Obs.snapshot r in
  check bool "snapshot sees counter" true
    (Obs.Snapshot.find s "c" = Some (Obs.Snapshot.Counter 5))

(* ---- histogram bucket edges ---- *)

(* Upper-inclusive bucketing: v lands in the first bucket whose edge is
   >= v, values above the last edge in overflow — checked for arbitrary
   values against a linear scan of the same rule. *)
let prop_bucket_edges =
  let edges = [| 0.1; 1.0; 10.0; 100.0 |] in
  QCheck.Test.make ~name:"histogram bucketing matches the linear-scan rule"
    ~count:500
    QCheck.(float_bound_exclusive 200.0)
    (fun v ->
      let r = Obs.create () in
      let h = Obs.histogram ~buckets:edges r "h" in
      Obs.observe h v;
      let expected =
        let rec scan i =
          if i >= Array.length edges then Array.length edges
          else if v <= edges.(i) then i
          else scan (i + 1)
        in
        scan 0
      in
      match Obs.Snapshot.find (Obs.snapshot r) "h" with
      | Some (Obs.Snapshot.Histogram d) ->
        Array.for_all (fun c -> c >= 0) d.counts
        && Obs.Snapshot.count d = 1
        && d.counts.(expected) = 1
        && d.sum = v
      | _ -> false)

let test_bucket_boundaries () =
  let r = Obs.create () in
  let h = Obs.histogram ~buckets:[| 1.0; 2.0 |] r "h" in
  List.iter (Obs.observe h) [ 1.0; 1.0000001; 2.0; 2.0000001 ];
  match Obs.Snapshot.find (Obs.snapshot r) "h" with
  | Some (Obs.Snapshot.Histogram d) ->
    check bool "exact edge is inclusive, just-above spills over" true
      (d.counts = [| 1; 2; 1 |])
  | _ -> Alcotest.fail "histogram missing"

let test_quantiles () =
  let r = Obs.create () in
  let h = Obs.histogram ~buckets:[| 1.0; 2.0; 4.0 |] r "h" in
  (match Obs.Snapshot.find (Obs.snapshot r) "h" with
  | Some (Obs.Snapshot.Histogram d) ->
    check bool "empty histogram has no quantiles" true
      (Obs.Snapshot.quantile d 0.5 = None)
  | _ -> Alcotest.fail "histogram missing");
  List.iter (Obs.observe h) [ 0.5; 1.5; 1.6; 3.0 ];
  Obs.observe h 100.0;
  match Obs.Snapshot.find (Obs.snapshot r) "h" with
  | Some (Obs.Snapshot.Histogram d) ->
    check bool "p50 is the holding bucket's upper edge" true
      (Obs.Snapshot.quantile d 0.5 = Some 2.0);
    check bool "p99 lands in overflow" true
      (Obs.Snapshot.quantile d 0.99 = Some infinity)
  | _ -> Alcotest.fail "histogram missing"

(* ---- merge laws ---- *)

let snap_of spec =
  (* spec: counters, one gauge, one histogram with a shared layout *)
  let r = Obs.create () in
  List.iter
    (fun (name, v) -> Obs.inc ~by:v (Obs.counter r name))
    spec;
  r

let test_merge_laws () =
  let a =
    let r = snap_of [ ("x", 1); ("only_a", 5) ] in
    Obs.set_gauge (Obs.gauge r "g") 1.0;
    Obs.observe (Obs.histogram ~buckets:[| 1.0; 2.0 |] r "h") 0.5;
    Obs.snapshot r
  in
  let b =
    let r = snap_of [ ("x", 2); ("only_b", 7) ] in
    Obs.set_gauge (Obs.gauge r "g") 3.0;
    Obs.observe (Obs.histogram ~buckets:[| 1.0; 2.0 |] r "h") 1.5;
    Obs.snapshot r
  in
  let c = Obs.snapshot (snap_of [ ("x", 4) ]) in
  let ( + ) = Obs.Snapshot.merge in
  check string "merge commutes" (compact (a + b)) (compact (b + a));
  check string "merge associates"
    (compact (a + b + c))
    (compact (a + (b + c)));
  check string "empty is the unit" (compact a)
    (compact (Obs.Snapshot.merge Obs.Snapshot.empty a));
  let m = a + b + c in
  let counter name =
    match Obs.Snapshot.find m name with
    | Some (Obs.Snapshot.Counter v) -> v
    | _ -> Alcotest.failf "missing counter %s" name
  in
  check int "counters add" 7 (counter "x");
  check int "one-sided keys survive" 5 (counter "only_a");
  check int "one-sided keys survive (right)" 7 (counter "only_b");
  (match Obs.Snapshot.find m "g" with
  | Some (Obs.Snapshot.Gauge v) -> check bool "gauges take max" true (v = 3.0)
  | _ -> Alcotest.fail "gauge missing");
  (match Obs.Snapshot.find m "h" with
  | Some (Obs.Snapshot.Histogram d) ->
    check bool "histogram counts add" true (d.counts = [| 1; 1; 0 |]);
    check bool "sums add" true (d.sum = 2.0)
  | _ -> Alcotest.fail "histogram missing");
  let order_a = List.map fst (Obs.Snapshot.metrics m) in
  check bool "merged snapshot stays name-sorted" true
    (order_a = List.sort compare order_a)

let test_merge_mismatch () =
  let h1 =
    let r = Obs.create () in
    Obs.observe (Obs.histogram ~buckets:[| 1.0 |] r "m") 0.5;
    Obs.snapshot r
  in
  let h2 =
    let r = Obs.create () in
    Obs.observe (Obs.histogram ~buckets:[| 2.0 |] r "m") 0.5;
    Obs.snapshot r
  in
  let c1 = Obs.snapshot (snap_of [ ("m", 1) ]) in
  (match Obs.Snapshot.merge h1 h2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "layout mismatch must raise");
  match Obs.Snapshot.merge h1 c1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise"

(* ---- JSON round-trip ---- *)

let test_json_roundtrip () =
  let r = Obs.create () in
  Obs.inc ~by:42 (Obs.counter r "zz.counter");
  Obs.set_gauge (Obs.gauge r "a.gauge") 1.5;
  let h = Obs.histogram r "lat" in
  List.iter (Obs.observe h) [ 0.002; 0.1; 7.0; 9999.0 ];
  let s = Obs.snapshot r in
  match Obs.Snapshot.of_json (Obs.Snapshot.to_json s) with
  | Error m -> Alcotest.failf "of_json failed: %s" m
  | Ok s' -> check string "snapshot survives JSON" (compact s) (compact s')

(* ---- latency derivations on a hand-built trace ---- *)

let p = Pid.make

let build_trace events =
  let trace = Trace.create () in
  let counters = Hashtbl.create 8 in
  List.iter
    (fun (time, owner, kind) ->
      let index =
        1 + Option.value ~default:0 (Hashtbl.find_opt counters owner)
      in
      Hashtbl.replace counters owner index;
      Trace.record trace ~owner ~index ~time
        ~vc:(Vector_clock.of_list [ (owner, index) ])
        kind)
    events;
  trace

let installed ver members = Trace.Installed { ver; view_members = members }

let test_latency_derivations () =
  let trace =
    build_trace
      [ (0.0, p 0, installed 0 [ p 0; p 1; p 2 ]);
        (0.0, p 1, installed 0 [ p 0; p 1; p 2 ]);
        (0.0, p 2, installed 0 [ p 0; p 1; p 2 ]);
        (10.0, p 2, Trace.Crashed);
        (12.5, p 0, Trace.Faulty (p 2));
        (13.0, p 1, Trace.Faulty (p 2));
        (14.0, p 0, installed 1 [ p 0; p 1 ]);
        (16.0, p 1, installed 1 [ p 0; p 1 ]) ]
  in
  let r = Obs.create () in
  Latency.observe r trace;
  let hist name =
    match Obs.Snapshot.find (Obs.snapshot r) name with
    | Some (Obs.Snapshot.Histogram d) -> d
    | _ -> Alcotest.failf "missing histogram %s" name
  in
  let susp = hist Latency.crash_to_first_suspicion in
  check int "one crash, one first-suspicion sample" 1
    (Obs.Snapshot.count susp);
  check bool "first suspicion is the earliest detector" true
    (susp.sum = 2.5);
  let view = hist Latency.crash_to_view_installed in
  check int "both surviving members converge" 2 (Obs.Snapshot.count view);
  check bool "per-member convergence times add up" true
    (view.sum = 4.0 +. 6.0);
  check int "no joins in this trace" 0
    (Obs.Snapshot.count (hist Latency.join_to_installed))

let test_latency_orchestrated_crash () =
  (* A SIGKILLed node logs no Crashed event: the kill time arrives via
     ?crashes, and an in-trace event for the same pid wins over it. *)
  let trace =
    build_trace
      [ (0.0, p 0, installed 0 [ p 0; p 1 ]);
        (0.0, p 1, installed 0 [ p 0; p 1 ]);
        (12.0, p 0, Trace.Faulty (p 1));
        (14.0, p 0, installed 1 [ p 0 ]) ]
  in
  let r = Obs.create () in
  Latency.observe ~crashes:[ (p 1, 10.0) ] r trace;
  let hist name =
    match Obs.Snapshot.find (Obs.snapshot r) name with
    | Some (Obs.Snapshot.Histogram d) -> d
    | _ -> Alcotest.failf "missing histogram %s" name
  in
  check bool "crash instant comes from the orchestrator" true
    ((hist Latency.crash_to_first_suspicion).sum = 2.0);
  check bool "survivor convergence measured from the kill" true
    ((hist Latency.crash_to_view_installed).sum = 4.0)

(* ---- the simulator end of the seam ---- *)

let sim_metrics seed =
  let group = Group.create ~seed ~n:5 () in
  Group.crash_at group 10.0 (p 0);
  Group.run ~until:300.0 group;
  Group.metrics group

let test_sim_same_seed_identical () =
  let a = sim_metrics 11 and b = sim_metrics 11 in
  check string "same seed, byte-identical metrics JSON" (compact a)
    (compact b)

let test_sim_metrics_contents () =
  let m = sim_metrics 11 in
  let hist name =
    match Obs.Snapshot.find m name with
    | Some (Obs.Snapshot.Histogram d) -> d
    | _ -> Alcotest.failf "missing histogram %s" name
  in
  check bool "sim measured the crash's convergence" true
    (Obs.Snapshot.count (hist Latency.crash_to_view_installed) >= 1);
  (match Obs.Snapshot.find m "sim.events_fired" with
  | Some (Obs.Snapshot.Counter v) ->
    check bool "engine totals in the metrics" true (v > 0)
  | _ -> Alcotest.fail "sim.events_fired missing");
  match Obs.Snapshot.find m "msg.heartbeat.sent" with
  | Some (Obs.Snapshot.Counter v) ->
    check bool "stats categories are registry counters" true (v > 0)
  | _ -> Alcotest.fail "msg.heartbeat.sent missing"

let test_sim_arq_rtt () =
  (* The sim ARQ samples clean (never-retransmitted) exchanges into
     arq.rtt on the virtual clock — same metric name and bucket layout the
     live node uses on the wall clock, so the snapshots merge. *)
  let registry = Obs.create () in
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 7 in
  let arq =
    Gmp_net.Arq.create ~loss:0.3 ~rto:5.0 ~engine ~rng
      ~delay:(Gmp_net.Delay.uniform ~lo:0.5 ~hi:1.5)
      ~registry ()
  in
  Gmp_net.Arq.set_handler arq (fun ~dst:_ ~src:_ _ -> ());
  for i = 1 to 50 do
    Gmp_net.Arq.send arq ~src:(p 0) ~dst:(p 1) i
  done;
  Gmp_sim.Engine.run engine;
  let s = Obs.snapshot registry in
  (match Obs.Snapshot.find s "arq.rtt" with
  | Some (Obs.Snapshot.Histogram d) ->
    check bool "clean exchanges sampled" true (Obs.Snapshot.count d > 0);
    check bool "retransmitted exchanges excluded (Karn)" true
      (Obs.Snapshot.count d < 50)
  | _ -> Alcotest.fail "arq.rtt missing");
  match Obs.Snapshot.find s "arq.retransmits" with
  | Some (Obs.Snapshot.Counter v) ->
    check bool "loss forced retransmissions" true (v > 0)
  | _ -> Alcotest.fail "arq.retransmits missing"

(* ---- metrics lines in the live log ---- *)

let test_metrics_line_roundtrip () =
  let path = Filename.temp_file "gmp-obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let trace = Trace.create () in
      let writer = Gmp_live.Trace_io.attach trace ~path in
      let r = Obs.create () in
      Obs.inc ~by:3 (Obs.counter r "arq.retransmits");
      Gmp_live.Trace_io.write_metrics writer ~pid:(p 0) ~at:1.0
        (Obs.snapshot r);
      (* a later, richer line must win *)
      Obs.observe (Obs.histogram r "arq.rtt") 0.05;
      let final = Obs.snapshot r in
      Gmp_live.Trace_io.write_metrics writer ~pid:(p 0) ~at:2.0 final;
      Gmp_live.Trace_io.close writer;
      (match Gmp_live.Trace_io.read_metrics path with
      | None -> Alcotest.fail "metrics line not found"
      | Some s ->
        check string "last metrics line round-trips" (compact final)
          (compact s));
      match Gmp_live.Trace_io.read_file path with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "summary lines leaked into the event stream"
      | Error m -> Alcotest.failf "read failed: %s" m)

let suite =
  [ Alcotest.test_case "counter and gauge basics" `Quick test_counter_gauge;
    qtest prop_bucket_edges;
    Alcotest.test_case "bucket edges are upper-inclusive" `Quick
      test_bucket_boundaries;
    Alcotest.test_case "quantile semantics" `Quick test_quantiles;
    Alcotest.test_case "merge laws" `Quick test_merge_laws;
    Alcotest.test_case "merge rejects mismatches" `Quick test_merge_mismatch;
    Alcotest.test_case "snapshot JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "latency derivations" `Quick test_latency_derivations;
    Alcotest.test_case "orchestrated crash times" `Quick
      test_latency_orchestrated_crash;
    Alcotest.test_case "sim same-seed metrics are byte-identical" `Quick
      test_sim_same_seed_identical;
    Alcotest.test_case "sim metrics contents" `Quick test_sim_metrics_contents;
    Alcotest.test_case "sim ARQ samples rtt under Karn's rule" `Quick
      test_sim_arq_rtt;
    Alcotest.test_case "metrics lines round-trip the log" `Quick
      test_metrics_line_roundtrip ]
