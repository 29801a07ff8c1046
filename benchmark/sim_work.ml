(* The simulator workloads, sim-steady and sim-churn, and the sim probe.

   An untraced run goes through the library's own entry points
   ([Scenario.scale_single_crash], [Scenario.churn]): the workload is the
   scenario, repeated with per-repetition seeds for as long as the run
   lasts. A traced run rebuilds the same schedule from [Runtime],
   [Member] and [Engine] with every node's platform record wrapped by the
   tracer, and must reproduce the library run's event and message counts
   exactly, so the per-layer numbers describe the workload that was
   measured end to end. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group
module Runtime = Gmp_runtime.Runtime
module Engine = Gmp_sim.Engine
module Stats = Gmp_net.Stats
module Scenario = Gmp_workload.Scenario
module Vector_clock = Gmp_causality.Vector_clock
module Obs = Gmp_obs.Obs

(* A schedule as Scenario's builders inject it through [Group]. *)
type shape = {
  n : int;
  config : Config.t;
  delay : Gmp_net.Delay.t option;
  crashes : (float * Pid.t) list;
  joins : (float * Pid.t * Pid.t) list;  (** time, joiner, first contact *)
  horizon : float;
}

(* [Scenario]'s livelock guard for the scale scenarios. *)
let max_steps = 200_000_000

(* A scenario stops at a fixed horizon, but under heavy-tailed delays a
   false suspicion can start a change just before it (Scenario.churn at
   n=32: 2 repetitions in 1,300). A repetition whose checker verdict
   fails at the horizon runs on, [settle_step] time units at a time, until
   it passes, at most [settle_limit] times; the traced path makes the same
   decisions. *)
let settle_step = 50.0
let settle_limit = 10

(* [Scenario.scale_single_crash]. *)
let steady_shape ~n =
  { n;
    config = Config.default;
    delay = None;
    crashes = [ (10.0, Pid.make (n - 1)) ];
    joins = [];
    horizon = 120.0 }

(* [Scenario.churn]. *)
let churn_shape ~n =
  let crashes = max 1 (n / 6) in
  { n;
    config = { Config.default with Config.heartbeat_timeout = 15.0 };
    delay = Some (Gmp_net.Delay.exponential ~mean:1.0);
    crashes =
      (10.0, Pid.make 0)
      :: List.init crashes (fun i ->
             let i = i + 1 in
             ( 25.0 +. (15.0 *. float_of_int i),
               Pid.make (1 + (i * (n - 5) / (crashes + 1))) ));
    joins =
      List.init 3 (fun j ->
          let j = j + 1 in
          ( 30.0 +. (30.0 *. float_of_int j),
            Pid.make (1000 + j),
            Pid.make (n - 1 - j) ));
    horizon = 25.0 +. (15.0 *. float_of_int crashes) +. 120.0 }

type workload = {
  shape : shape;
  library : seed:int -> Scenario.measurement * Group.t;
      (** the library entry point that runs [shape] *)
  k : int;
      (** repetitions whose samples make the protocol metrics: fixed, so
          they depend on the seed and never on how fast the run is *)
}

let sim_steady ~n =
  { shape = steady_shape ~n;
    library = (fun ~seed -> Scenario.scale_single_crash ~seed ~n ());
    k = 2 }

let sim_churn ~n =
  { shape = churn_shape ~n; library = (fun ~seed -> Scenario.churn ~seed ~n ()); k = 40 }

let rep_seed seed i = (seed * 1009) + i

(* ---- the library path ---- *)

let group_of shape ~seed =
  let g = Group.create ~config:shape.config ?delay:shape.delay ~seed ~n:shape.n () in
  List.iter (fun (t, p) -> Group.crash_at g t p) shape.crashes;
  List.iter (fun (t, p, contact) -> Group.join_at g t p ~contact) shape.joins;
  g

(* A probe's library run: the shape through [Group] directly. *)
let group_library shape ~seed =
  let g = group_of shape ~seed in
  Group.run ~max_steps ~until:shape.horizon g;
  (Scenario.measure g, g)

type rep = {
  events : int;
  messages : int;
  trace_length : int;
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  measurement : Scenario.measurement;
  group : Group.t;
}

let library_rep w ~seed =
  Vector_clock.fresh_registry ();
  let w0 = Meter.wall () and c0 = Meter.cpu_total () and m0 = Gc.minor_words () in
  let measurement, group = w.library ~seed in
  let rec settle (m : Scenario.measurement) i =
    if m.violations = [] || i > settle_limit then m
    else begin
      Group.run ~max_steps ~until:(w.shape.horizon +. (settle_step *. float_of_int i)) group;
      settle (Scenario.measure group) (i + 1)
    end
  in
  let measurement = settle measurement 1 in
  let minor_words = Gc.minor_words () -. m0 in
  let cpu_s = Meter.cpu_total () -. c0 and wall_s = Meter.wall () -. w0 in
  { events = Engine.fired_events (Group.engine group);
    messages = Stats.total_sent (Group.stats group);
    trace_length = Trace.length (Group.trace group);
    wall_s;
    cpu_s;
    minor_words;
    measurement;
    group }

(* Correctness of one library repetition: checker-clean (safety and
   liveness, through the scenario's own verdict) and every crashed member
   excluded from every survivor's view. The operations are the injected
   crashes. Joiners are not judged: one that is falsely suspected after it
   joins is excluded like any other member. *)
let judge o shape r =
  let views = Group.surviving_views r.group in
  let excluded p = List.for_all (fun (_, _, ms) -> not (List.exists (Pid.equal p) ms)) views in
  let bad = List.filter (fun (_, p) -> not (excluded p)) shape.crashes in
  let violations = r.measurement.Scenario.violations in
  List.iter
    (fun (v : Checker.violation) ->
      Outcome.error o (Printf.sprintf "checker: %s: %s" v.property v.detail))
    violations;
  List.iter (fun (_, p) -> Outcome.error o ("crashed member not excluded: " ^ Pid.to_string p)) bad;
  let crashes = List.length shape.crashes in
  Outcome.attempt o ~attempted:crashes
    ~failed:(if violations <> [] then crashes else List.length bad)

(* Exact samples of one repetition, checked against the library's
   histograms. Virtual time units are reported as milliseconds x 1000. *)
let samples_of o r =
  let trace = Group.trace r.group in
  let s = Samples.derive trace in
  Outcome.check_result o (Samples.cross_check trace s);
  s

let ms xs q = 1000.0 *. Meter.quantile (Array.of_list xs) q

(* Repetitions [0 ..], at least [min_reps], until [seconds] have passed. *)
let repeat ~min_reps ~seconds f =
  let t0 = Meter.wall () in
  let rec go i acc =
    if i >= min_reps && Meter.wall () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* One timed set-up: the group built and its schedule injected. *)
let setup_sample shape ~seed =
  Vector_clock.fresh_registry ();
  let _g, ns = Meter.time_ns (fun () -> group_of shape ~seed) in
  float_of_int ns /. 1e9

(* Set-ups are spread over the run (four before each of the first five
   repetitions, one before each later one), so their median does not hang
   on one moment's machine load. *)
let setups_before i = if i < 5 then 4 else 1

(* ---- end to end ---- *)

let run_e2e w ~seed ~seconds o =
  let setups = ref [] in
  (* The heap's high-water mark after the first [k] repetitions: a fixed
     amount of work, unlike the whole time-bounded run. *)
  let peak = ref 0.0 in
  let reps =
    repeat ~min_reps:w.k ~seconds (fun i ->
        for j = 1 to setups_before i do
          setups := setup_sample w.shape ~seed:(rep_seed seed (i + j)) :: !setups
        done;
        let r = library_rep w ~seed:(rep_seed seed i) in
        judge o w.shape r;
        let s = if i < w.k then Some (samples_of o r) else None in
        if i = w.k - 1 then peak := Meter.peak_heap_mb ();
        (r, s))
  in
  let per_rep f = Meter.median (Array.of_list (List.map (fun (r, _) -> f r) reps)) in
  let conv = List.concat_map (fun (_, s) -> match s with Some s -> s.Samples.convergence | None -> []) reps in
  Outcome.param o "reps" (Json.int (List.length reps));
  Outcome.param o "n" (Json.int w.shape.n);
  Metrics.set_all o.Outcome.sheet
    [ ("setup_s", Meter.median (Array.of_list !setups));
      ("throughput_per_s", per_rep (fun r -> float_of_int r.events /. r.wall_s));
      ("cpu_us_per_op", per_rep (fun r -> 1e6 *. r.cpu_s /. float_of_int r.events));
      ("latency_p50_ms", ms conv 0.5);
      ("latency_p90_ms", ms conv 0.9);
      ("peak_heap_mb", !peak) ]

(* ---- the traced path ---- *)

type built = {
  runtime : Wire.t Runtime.t;
  trace : Trace.t;
  initial : Pid.t list;
  members : Member.t Pid.Tbl.t;
}

(* [Group.check] over a built group, for the settle decisions. *)
let verdict b =
  let members =
    List.sort
      (fun a c -> Pid.compare (Member.pid a) (Member.pid c))
      (Pid.Tbl.fold (fun _ m acc -> m :: acc) b.members [])
  in
  let live = List.filter (fun m -> Member.operational m && Member.joined m) members in
  let final_view =
    match live with
    | m :: rest
      when List.for_all
             (fun m' -> Member.version m' = Member.version m && View.equal (Member.view m') (Member.view m))
             rest ->
      View.members (Member.view m)
    | _ -> []
  in
  Checker.check_run b.trace ~initial:b.initial
    ~surviving_views:(List.map (fun m -> (Member.pid m, Member.version m, View.members (Member.view m))) live)
    ~dead:(List.filter_map (fun m -> if Member.operational m then None else Some (Member.pid m)) members)
    ~final_view

(* [Group.create] plus [Group.crash_at]/[Group.join_at], step for step, with
   each platform record wrapped before [Member.create] sees it. *)
let build tracer shape ~seed =
  let runtime = Runtime.create ?delay:shape.delay ~seed () in
  let trace = Trace.create () in
  let initial = Pid.group shape.n in
  Vector_clock.reserve initial;
  let node pid = Tracer.wrap tracer (Runtime.platform (Runtime.spawn runtime pid)) in
  let members = Pid.Tbl.create 64 in
  List.iter
    (fun pid ->
      Pid.Tbl.replace members pid
        (Member.create ~node:(node pid) ~trace ~config:shape.config ~initial ()))
    initial;
  let at time f =
    ignore (Engine.schedule_at (Runtime.engine runtime) ~time f : Engine.handle)
  in
  List.iter
    (fun (time, pid) -> at time (fun () -> Member.inject_crash (Pid.Tbl.find members pid)))
    shape.crashes;
  List.iter
    (fun (time, pid, contact) ->
      at time (fun () ->
          let m =
            Member.create ~joiner:true ~node:(node pid) ~trace ~config:shape.config
              ~initial ()
          in
          Pid.Tbl.replace members pid m;
          Member.start_join m
            ~contacts:(contact :: List.filter (fun p -> not (Pid.equal p contact)) initial)))
    shape.joins;
  { runtime; trace; initial; members }

type traced_rep = { t_events : int; t_messages : int; t_trace_length : int; run_ns : int; t_cpu_s : float }

(* CPU covers the build as well as the run, as a library repetition's
   does, so the two compare per event. *)
let traced_rep tracer shape ~seed =
  Vector_clock.fresh_registry ();
  let c0 = Meter.cpu_total () in
  let b = build tracer shape ~seed in
  let run_ns = ref 0 in
  let run_until until =
    let (), ns = Meter.time_ns (fun () -> Runtime.run ~max_steps ~until b.runtime) in
    run_ns := !run_ns + ns
  in
  run_until shape.horizon;
  let i = ref 1 in
  while !i <= settle_limit && verdict b <> [] do
    run_until (shape.horizon +. (settle_step *. float_of_int !i));
    incr i
  done;
  { t_events = Engine.fired_events (Runtime.engine b.runtime);
    t_messages = Stats.total_sent (Runtime.stats b.runtime);
    t_trace_length = Trace.length b.trace;
    run_ns = !run_ns;
    t_cpu_s = Meter.cpu_total () -. c0 }

(* The trace written as per-owner JSONL logs, then timed back through
   [Trace_io]'s reassembly, as a live run's logs are. *)
let reassemble_s o trace ~dir =
  let logs = Pid.Tbl.create 64 in
  Trace.iter trace (fun (e : Trace.event) ->
      let t, _ =
        match Pid.Tbl.find_opt logs e.owner with
        | Some x -> x
        | None ->
          let t = Trace.create () in
          let path = Filename.concat dir (Pid.to_string e.owner ^ ".jsonl") in
          let x = (t, (Gmp_live.Trace_io.attach t ~path, path)) in
          Pid.Tbl.replace logs e.owner x;
          x
      in
      Trace.record t ~owner:e.owner ~index:e.index ~time:e.time ~vc:e.vc e.kind);
  let paths =
    Pid.Tbl.fold
      (fun _ (_, (w, path)) acc ->
        Gmp_live.Trace_io.close w;
        path :: acc)
      logs []
  in
  let result, ns = Meter.time_ns (fun () -> Gmp_live.Trace_io.read_and_reassemble paths) in
  (match result with
  | Ok t -> Outcome.check o (Trace.length t = Trace.length trace) "trace_io: reassembly lost events"
  | Error m -> Outcome.error o ("trace_io: " ^ m));
  List.iter Sys.remove paths;
  float_of_int ns /. 1e9

let median_of xs = Meter.median (Array.of_list xs)
let seconds_of f = float_of_int (snd (Meter.time_ns f)) /. 1e9

(* Every sim-world per-layer row. [half] bounds each of the untraced and
   traced halves; a probe passes 0 and gets one repetition of each. *)
let layer_rows w ~seed ~half ~dir o =
  let untraced =
    repeat ~min_reps:w.k ~seconds:half (fun i -> library_rep w ~seed:(rep_seed seed i))
  in
  List.iter (judge o w.shape) untraced;
  let tracer = Tracer.create () in
  let traced =
    repeat ~min_reps:1 ~seconds:half (fun i -> traced_rep tracer w.shape ~seed:(rep_seed seed i))
  in
  List.iteri
    (fun i t ->
      match List.nth_opt untraced i with
      | Some r ->
        Outcome.check o
          (r.events = t.t_events && r.messages = t.t_messages
          && r.trace_length = t.t_trace_length)
          (Printf.sprintf
             "traced group diverged from the library run (seed %d): events %d/%d, \
              messages %d/%d, trace %d/%d"
             (rep_seed seed i) r.events t.t_events r.messages t.t_messages
             r.trace_length t.t_trace_length)
      | None -> ())
    traced;
  let sampled = List.filteri (fun i _ -> i < w.k) untraced in
  let samples = List.map (samples_of o) sampled in
  let all f = List.concat_map f samples in
  let r0 = List.hd untraced in
  let m0 = r0.measurement in
  let stats = Group.stats r0.group in
  let hb = Stats.sent stats ~category:(Wire.category Wire.Heartbeat) in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let t_events = sum (fun t -> t.t_events) traced in
  let summary = Tracer.summary tracer in
  let untraced_cpu = sumf (fun r -> r.cpu_s) untraced /. float_of_int (sum (fun r -> r.events) untraced) in
  let traced_cpu = sumf (fun t -> t.t_cpu_s) traced /. float_of_int t_events in
  Metrics.set_all o.Outcome.sheet
    ([ ("engine.events_fired", float_of_int r0.events);
       ("engine.peak_heap_entries", float_of_int (Engine.peak_queue_length (Group.engine r0.group)));
       ( "engine.self_ns_per_event",
         float_of_int (sum (fun t -> t.run_ns) traced - summary.Tracer.top_ns)
         /. float_of_int t_events );
       ( "alloc.minor_words_per_event",
         sumf (fun r -> r.minor_words) untraced /. float_of_int (sum (fun r -> r.events) untraced) );
       ( "member.protocol_msgs_per_change",
         float_of_int m0.Scenario.protocol_msgs /. float_of_int (max 1 m0.Scenario.views_installed) );
       ("member.convergence_p50_ms", ms (all (fun s -> s.Samples.convergence)) 0.5);
       ("member.convergence_p95_ms", ms (all (fun s -> s.Samples.convergence)) 0.95);
       ("network.msgs_sent_heartbeat", float_of_int hb);
       ("network.msgs_sent_protocol", float_of_int m0.Scenario.protocol_msgs);
       ("network.msgs_dropped", float_of_int (Stats.total_dropped stats));
       ( "network.overhead_msgs_per_member_s",
         float_of_int (hb + m0.Scenario.protocol_msgs)
         /. (float_of_int w.shape.n *. w.shape.horizon) );
       ("detector.detection_p50_ms", ms (all (fun s -> s.Samples.detection)) 0.5);
       ( "detector.false_suspicions",
         float_of_int
           (sum (fun r -> Samples.false_suspicions (Group.trace r.group)) sampled) );
       ( "checker.check_s",
         median_of (List.map (fun r -> seconds_of (fun () -> ignore (Group.check r.group : Checker.violation list))) untraced) );
       ( "latency.observe_s",
         median_of
           (List.map
              (fun r -> seconds_of (fun () -> Latency.observe (Obs.create ()) (Group.trace r.group)))
              untraced) );
       ( "obs.snapshot_us",
         1e6
         *. median_of
              (List.map
                 (fun r -> seconds_of (fun () -> ignore (Obs.snapshot (Group.registry r.group) : Obs.Snapshot.t)))
                 untraced) );
       ("trace_io.reassemble_s", reassemble_s o (Group.trace r0.group) ~dir);
       ("tracing.overhead_frac", (traced_cpu /. untraced_cpu) -. 1.0) ]
    @ Tracer.rows summary);
  Outcome.param o "untraced_reps" (Json.int (List.length untraced));
  Outcome.param o "traced_reps" (Json.int (List.length traced))

(* ---- the probe ----

   The sim-world rows for a workload that does not run the simulator: the
   workload's group shape (size, detector timing, one crash at a seeded
   instant), run once through [Group] and once traced. *)

let probe_shape ~n ~config ~delay ~seed =
  let st = Random.State.make [| seed; n |] in
  let interval = config.Config.heartbeat_interval in
  let crash_at = (5.0 +. Random.State.float st 1.0) *. interval in
  { n;
    config;
    delay = Some delay;
    crashes = [ (crash_at, Pid.make (n - 1)) ];
    joins = [];
    horizon = crash_at +. (4.0 *. config.Config.heartbeat_timeout) }

let probe ~n ~config ~delay ~seed ~dir o =
  let shape = probe_shape ~n ~config ~delay ~seed in
  let w = { shape; library = group_library shape; k = 1 } in
  let p = Outcome.create () in
  layer_rows w ~seed ~half:0.0 ~dir p;
  List.iter (Outcome.error o) p.Outcome.errors;
  Hashtbl.iter (fun k v -> Metrics.set_absent o.Outcome.sheet k v) p.Outcome.sheet
