(* Simulation harness: builds a process group on the simulated network,
   injects failures / suspicions / joins / partitions on schedule, runs the
   engine, and hands back the trace, statistics and final states. *)

open Gmp_base
open Gmp_core

type t = {
  runtime : Wire.t Runtime.t;
  trace : Trace.t;
  config : Config.t;
  initial : Pid.t list;
  mutable members : Member.t Pid.Map.t; (* all ever spawned *)
}

let create ?(config = Config.default) ?delay ?(seed = 1) ~n () =
  if n <= 0 then invalid_arg "Group.create: need at least one process";
  let runtime = Runtime.create ?delay ~seed () in
  let trace = Trace.create () in
  let initial = Pid.group n in
  (* Canonical clock slots: intern the founding membership in pid order, not
     in whatever order the first messages happen to arrive. *)
  Gmp_causality.Vector_clock.reserve initial;
  let members =
    List.fold_left
      (fun acc pid ->
        let node = Runtime.spawn runtime pid in
        let m = Member.create ~node ~trace ~config ~initial () in
        Pid.Map.add pid m acc)
      Pid.Map.empty initial
  in
  { runtime; trace; config; initial; members }

let runtime t = t.runtime
let engine t = Runtime.engine t.runtime
let network t = Runtime.network t.runtime
let trace t = t.trace
let stats t = Runtime.stats t.runtime
let registry t = Gmp_net.Stats.registry (stats t)

(* The persistent registry holds only counters that are live state, so
   snapshotting it is idempotent. Latency histograms are re-derived from
   the trace, and the engine totals read afresh, into a throwaway registry
   each call, keeping [metrics] callable at any point of a run without
   double-counting. *)
let metrics t =
  let derived = Gmp_obs.Obs.create () in
  Gmp_core.Latency.observe derived t.trace;
  let total name v = Gmp_obs.Obs.inc ~by:v (Gmp_obs.Obs.counter derived name) in
  total "sim.events_fired" (Gmp_sim.Engine.fired_events (engine t));
  total "sim.peak_heap_entries" (Gmp_sim.Engine.peak_queue_length (engine t));
  Gmp_obs.Obs.Snapshot.merge
    (Gmp_obs.Obs.snapshot (registry t))
    (Gmp_obs.Obs.snapshot derived)
let initial t = t.initial
let pids t = List.map fst (Pid.Map.bindings t.members)

let member t pid =
  match Pid.Map.find_opt pid t.members with
  | Some m -> m
  | None ->
    invalid_arg (Fmt.str "Group.member: unknown pid %a" Pid.pp pid)

let members t = List.map snd (Pid.Map.bindings t.members)

let nth t i = member t (Pid.make i)

(* ---- schedule injections ---- *)

let at t time f =
  ignore
    (Gmp_sim.Engine.schedule_at (engine t) ~time f : Gmp_sim.Engine.handle)

let crash_at t time pid =
  at t time (fun () -> Member.inject_crash (member t pid))

let suspect_at t time ~observer ~target =
  at t time (fun () -> Member.inject_suspicion (member t observer) target)

let join_at ?contacts t time pid ~contact =
  at t time (fun () ->
      if Pid.Map.mem pid t.members then
        invalid_arg (Fmt.str "Group.join_at: pid %a already exists" Pid.pp pid);
      let node = Runtime.spawn t.runtime pid in
      let m =
        Member.create ~joiner:true ~node ~trace:t.trace ~config:t.config
          ~initial:t.initial ()
      in
      t.members <- Pid.Map.add pid m t.members;
      let contacts =
        match contacts with
        | Some cs -> contact :: cs
        | None ->
          contact :: List.filter (fun p -> not (Pid.equal p contact)) t.initial
      in
      Member.start_join m ~contacts)

let partition_at t time groups =
  at t time (fun () -> Gmp_net.Network.partition (Runtime.network t.runtime) groups)

let heal_at t time =
  at t time (fun () -> Gmp_net.Network.heal (Runtime.network t.runtime))

(* ---- running ---- *)

let run ?max_steps ?(until = 500.0) t =
  Runtime.run ?max_steps ~until t.runtime

(* ---- inspection ---- *)

let operational_members t =
  (* Never-joined joiners hold no view; they do not participate in view
     agreement. *)
  List.filter
    (fun m -> Member.operational m && Member.joined m)
    (members t)

let surviving_views t =
  List.map
    (fun m -> (Member.pid m, Member.version m, View.members (Member.view m)))
    (operational_members t)

(* The final system view, if the operational processes agree on one. *)
let agreed_view t =
  match operational_members t with
  | [] -> None
  | m :: rest ->
    let ver = Member.version m and v = Member.view m in
    if
      List.for_all
        (fun m' -> Member.version m' = ver && View.equal (Member.view m') v)
        rest
    then Some (ver, View.members v)
    else None

(* Count of protocol messages, per the paper's accounting (§7.2). *)
let protocol_messages t =
  let stats = stats t in
  List.fold_left
    (fun acc category -> acc + Gmp_net.Stats.sent stats ~category)
    0 Wire.protocol_categories

(* Combined protocol + network fingerprint over all members, in pid order.
   Pending engine events are hashed separately by the explorer (it owns the
   notion of "relative" event time). *)
let fingerprint t =
  let h =
    Pid.Map.fold
      (fun _ m h -> (h * 0x01000193) lxor (Member.fingerprint m land max_int))
      t.members 0x811c9dc5
  in
  (h * 0x01000193)
  lxor (Gmp_net.Network.fingerprint (Runtime.network t.runtime) land max_int)

(* ---- whole-world checkpoint: the explorer's snapshot layer ----

   Composes the per-module checkpoints into one capture of everything a
   simulated group run can mutate: the engine (event heap + handle flags +
   clock), the network (channels, crash/disconnect matrices, parked queues,
   counters, RNG), the runtime (node liveness/clocks/events, harness RNG),
   the trace (truncate-to-mark cursors) and every member's protocol state.
   Restore order is irrelevant — the five captures touch disjoint state —
   but members are restored before the map swap so a member that joined
   after the capture is dropped consistently everywhere. *)

type checkpoint = {
  gc_engine : Gmp_sim.Engine.checkpoint;
  gc_net : Wire.t Runtime.wrapped Gmp_net.Network.checkpoint;
  gc_runtime : Wire.t Runtime.checkpoint;
  gc_trace : Trace.checkpoint;
  gc_members : (Member.t * Member.checkpoint) list;
  gc_members_map : Member.t Pid.Map.t;
}

let checkpoint t =
  { gc_engine = Gmp_sim.Engine.checkpoint (engine t);
    gc_net = Gmp_net.Network.checkpoint (network t);
    gc_runtime = Runtime.checkpoint t.runtime;
    gc_trace = Trace.checkpoint t.trace;
    gc_members =
      Pid.Map.fold (fun _ m acc -> (m, Member.checkpoint m) :: acc) t.members
        [];
    gc_members_map = t.members }

let restore t cp =
  Gmp_sim.Engine.restore (engine t) cp.gc_engine;
  Gmp_net.Network.restore (network t) cp.gc_net;
  Runtime.restore t.runtime cp.gc_runtime;
  Trace.restore t.trace cp.gc_trace;
  List.iter (fun (m, c) -> Member.restore m c) cp.gc_members;
  t.members <- cp.gc_members_map

let pp_summary ppf t =
  let member ppf m = Member.pp ppf m in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(any "@\n") member) (members t)

(* ---- verdicts and export ---- *)

let check ?liveness t =
  let dead =
    List.filter_map
      (fun m -> if Member.operational m then None else Some (Member.pid m))
      (members t)
  in
  let final_view =
    match agreed_view t with Some (_, members) -> members | None -> []
  in
  Checker.check_run ?liveness t.trace ~initial:t.initial
    ~surviving_views:(surviving_views t) ~dead ~final_view

let to_json ?(include_trace = true) t =
  let module J = Json in
  let violations = check t in
  J.obj
    [ ("initial", J.list (List.map Export.json_of_pid t.initial));
      ("members", J.list (List.map Export.json_of_member (members t)));
      ( "agreed_view",
        match agreed_view t with
        | Some (ver, members) ->
          J.obj
            [ ("version", J.int ver);
              ("members", J.list (List.map Export.json_of_pid members)) ]
        | None -> J.null );
      ("protocol_messages", J.int (protocol_messages t));
      ("stats", Export.json_of_stats (stats t));
      ("metrics", Gmp_obs.Obs.Snapshot.to_json (metrics t));
      ("violations", J.list (List.map Export.json_of_violation violations));
      ( "trace",
        if include_trace then Export.json_of_trace t.trace else J.null )
    ]
