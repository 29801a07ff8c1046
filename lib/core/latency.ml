(* Detection-latency derivations: trace in, histogram observations out.

   Everything here is a pure function of the trace (plus the
   orchestrator-supplied kill times), evaluated after the run - no
   instrument sits inside the protocol. That keeps the measurement
   identical across worlds: the simulator stamps events with virtual time,
   the live runtime with its monotonicized wall clock, and the arithmetic
   below does not care which. *)

open Gmp_base
module Obs = Gmp_obs.Obs

let crash_to_first_suspicion = "latency.crash_to_first_suspicion"
let crash_to_view_installed = "latency.crash_to_view_installed"
let join_to_installed = "latency.join_to_installed"

(* Crash instants, one per pid: in-trace [Crashed] events first (earliest
   wins), then the caller's kill times for pids the trace never saw crash
   (a SIGKILL leaves no event). Sorted by pid so observation order - and
   with it the histograms' float sums - is deterministic. *)
let crash_times ~crashes trace =
  let tbl = Hashtbl.create 8 in
  Trace.iter trace (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Crashed -> (
        match Hashtbl.find_opt tbl e.owner with
        | Some t when t <= e.time -> ()
        | _ -> Hashtbl.replace tbl e.owner e.time)
      | _ -> ());
  List.iter
    (fun (p, t) -> if not (Hashtbl.mem tbl p) then Hashtbl.replace tbl p t)
    crashes;
  List.sort
    (fun (a, _) (b, _) -> Pid.compare a b)
    (Hashtbl.fold (fun p t acc -> (p, t) :: acc) tbl [])

(* Earliest [Operating q] per join target, again pid-sorted. *)
let join_times trace =
  let tbl = Hashtbl.create 8 in
  Trace.iter trace (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Operating q -> (
        match Hashtbl.find_opt tbl q with
        | Some t when t <= e.time -> ()
        | _ -> Hashtbl.replace tbl q e.time)
      | _ -> ());
  List.sort
    (fun (a, _) (b, _) -> Pid.compare a b)
    (Hashtbl.fold (fun p t acc -> (p, t) :: acc) tbl [])

(* Per crash, per member whose view held the victim at the crash: the time
   until that member first installs a view excluding it. A later joiner's
   first view excluding q is admission, not detection, so it does not
   count. Installs are per-owner in index order, so the last one at or
   before t0 is the view held at the crash. *)
let view_samples ~installs ~crash_times trace =
  let owners = Trace.owners trace in
  List.concat_map
    (fun (q, t0) ->
      List.filter_map
        (fun o ->
          if Pid.equal o q then None
          else begin
            let before = ref None and after = ref None in
            List.iter
              (fun ((e : Trace.event), _ver, members) ->
                if Pid.equal e.owner o then
                  if e.time <= t0 then before := Some members
                  else if
                    !after = None
                    && not (List.exists (Pid.equal q) members)
                  then after := Some e.time)
              installs;
            match (!before, !after) with
            | Some held, Some t when List.exists (Pid.equal q) held ->
              Some (q, t -. t0)
            | _ -> None
          end)
        owners)
    crash_times

let view_installed trace =
  view_samples ~installs:(Trace.installs trace)
    ~crash_times:(crash_times ~crashes:[] trace) trace

let observe ?(crashes = []) reg trace =
  let h_susp = Obs.histogram reg crash_to_first_suspicion in
  let h_view = Obs.histogram reg crash_to_view_installed in
  let h_join = Obs.histogram reg join_to_installed in
  let detections = Trace.detections trace in
  let installs = Trace.installs trace in
  let crash_times = crash_times ~crashes trace in
  List.iter
    (fun (q, t0) ->
      (* First suspicion of q anywhere in the surviving group. *)
      let first =
        List.fold_left
          (fun acc (observer, suspect, (e : Trace.event)) ->
            if Pid.equal suspect q && (not (Pid.equal observer q))
               && e.time >= t0
            then
              match acc with
              | Some t when t <= e.time -> acc
              | _ -> Some e.time
            else acc)
          None detections
      in
      Option.iter (fun t -> Obs.observe h_susp (t -. t0)) first)
    crash_times;
  List.iter
    (fun (_, d) -> Obs.observe h_view d)
    (view_samples ~installs ~crash_times trace);
  List.iter
    (fun (q, t0) ->
      (* The joiner's own first Installed at or after the announcement. *)
      let first =
        List.fold_left
          (fun acc ((e : Trace.event), _ver, _members) ->
            if Pid.equal e.owner q && e.time >= t0 then
              match acc with
              | Some t when t <= e.time -> acc
              | _ -> Some e.time
            else acc)
          None installs
      in
      Option.iter (fun t -> Obs.observe h_join (t -. t0)) first)
    (join_times trace)
