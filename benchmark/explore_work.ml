(* The explore workload, and the explore probe.

   The workload is the search CI runs on every push: [Explore.assurance]
   at depth 16 with a 120,000-execution budget (43,546 distinct
   interleavings), through the public entry point with the default engine
   options, repeated for as long as the run lasts. Its delays are
   constant, so every search of every seed does identical work; a run
   checks that it did. *)

open Gmp_base
module Explore = Gmp_explore.Explore

let ci_depth = 16
let ci_budget = 120_000

type search = {
  stats : Explore.stats;
  wall_s : float;
  cpu_s : float;
  minor_words : float;
}

let search ?(progress = false) ~seed ~depth ~budget o =
  let calls = ref 0 in
  let progress = if progress then Some (fun (_ : Explore.stats) -> incr calls) else None in
  let w0 = Meter.wall () and c0 = Meter.cpu_total () and m0 = Gc.minor_words () in
  let out = Explore.explore ?progress (Explore.assurance ~seed ()) ~depth ~budget in
  let minor_words = Gc.minor_words () -. m0 in
  let s =
    { stats = out.Explore.stats;
      wall_s = Meter.wall () -. w0;
      cpu_s = Meter.cpu_total () -. c0;
      minor_words }
  in
  (match out.Explore.counterexample with
  | None -> Outcome.attempt o ~attempted:s.stats.executions ~failed:0
  | Some cx ->
    Outcome.attempt o ~attempted:s.stats.executions ~failed:1;
    List.iter
      (fun (v : Gmp_core.Checker.violation) ->
        Outcome.error o (Printf.sprintf "explore: violation %s: %s" v.property v.detail))
      cx.Explore.cx_violations);
  s

let repeat ~seconds f =
  let t0 = Meter.wall () in
  let rec go acc =
    let acc = f () :: acc in
    if Meter.wall () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

(* Every search of a run must do identical work; the results rely on
   it. *)
let check_identical o searches =
  match searches with
  | [] -> ()
  | s0 :: rest ->
    Outcome.check o
      (List.for_all (fun s -> s.stats = s0.stats) rest)
      "explore: searches of one model disagree on their statistics"

let median f xs = Meter.median (Array.of_list (List.map f xs))

let run_e2e ~depth ~budget ~seed ~seconds o =
  (* Set-up is starting a search: one execution of depth 1. Two before
     every search spread the samples over the run. *)
  let setups = ref [] in
  let timed_search () =
    for _ = 1 to 2 do
      let _s, ns = Meter.time_ns (fun () -> search ~seed ~depth:1 ~budget:1 (Outcome.create ())) in
      setups := (float_of_int ns /. 1e9) :: !setups
    done;
    search ~seed ~depth ~budget o
  in
  let first = timed_search () in
  (* the heap's high-water mark after one search: fixed work *)
  let peak = Meter.peak_heap_mb () in
  let searches = first :: repeat ~seconds:(seconds -. first.wall_s) timed_search in
  check_identical o searches;
  let walls = Array.of_list (List.map (fun s -> 1000.0 *. s.wall_s) searches) in
  Outcome.param o "searches" (Json.int (List.length searches));
  Outcome.param o "depth" (Json.int depth);
  Outcome.param o "budget" (Json.int budget);
  Metrics.set_all o.Outcome.sheet
    [ ("setup_s", Meter.median (Array.of_list !setups));
      ("throughput_per_s", median (fun s -> float_of_int s.stats.distinct /. s.wall_s) searches);
      ("cpu_us_per_op", median (fun s -> 1e6 *. s.cpu_s /. float_of_int s.stats.distinct) searches);
      ("latency_p50_ms", Meter.quantile walls 0.5);
      ("latency_p90_ms", Meter.quantile walls 0.9);
      ("peak_heap_mb", peak) ]

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let rows searches =
  let s0 = (List.hd searches).stats in
  let execs = sum (fun s -> float_of_int s.stats.executions) searches in
  [ ("explore.executions", float_of_int s0.executions);
    ("explore.distinct", float_of_int s0.distinct);
    ("explore.frames", float_of_int s0.frames);
    ("explore.state_pruned", float_of_int s0.state_pruned);
    ("explore.sleep_pruned", float_of_int s0.sleep_pruned);
    ("explore.distinct_per_execution", float_of_int s0.distinct /. float_of_int s0.executions);
    ( "explore.ns_per_frame",
      1e9 *. sum (fun s -> s.wall_s) searches /. sum (fun s -> float_of_int s.stats.frames) searches );
    ("alloc.minor_words_per_execution", sum (fun s -> s.minor_words) searches /. execs) ]

(* The explorer builds its worlds itself, so no wrapper reaches inside a
   search; its rows are its own statistics and the GC counters around
   each call. The traced half installs the one hook there is, [progress]. *)
let layer_rows ~depth ~budget ~seed ~seconds o =
  let untraced = repeat ~seconds:(seconds /. 2.0) (fun () -> search ~seed ~depth ~budget o) in
  let traced =
    repeat ~seconds:(seconds /. 2.0) (fun () -> search ~progress:true ~seed ~depth ~budget o)
  in
  check_identical o (untraced @ traced);
  let cpu_per xs = sum (fun s -> s.cpu_s) xs /. sum (fun s -> float_of_int s.stats.distinct) xs in
  Metrics.set_all o.Outcome.sheet
    (("tracing.overhead_frac", (cpu_per traced /. cpu_per untraced) -. 1.0) :: rows untraced)

(* The explore rows for a workload that does not run the explorer: one
   small search of the same model. *)
let probe ~seed o =
  let p = Outcome.create () in
  let s = search ~seed ~depth:8 ~budget:2000 p in
  List.iter (Outcome.error o) p.Outcome.errors;
  Metrics.set_absent_all o.Outcome.sheet (rows [ s ])
