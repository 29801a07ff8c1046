(* Exact latency samples, derived from a run's trace.

   [Gmp_core.Latency.observe] records into fixed-bucket histograms whose
   edges are too coarse for a 10% bound (at n=128 every crash-to-view
   sample of a steady run lands in the (10, 25] bucket). This module makes
   the same three derivations, with the same definitions, visiting crashes,
   owners and installs in the same order, but keeps every sample.
   [cross_check] then runs the library derivation on the same trace and
   requires its histograms to hold exactly as many samples, summing to the
   same total, so the two cannot drift apart unnoticed. *)

open Gmp_base
open Gmp_core
module Obs = Gmp_obs.Obs

type t = {
  detection : float list;  (** crash to first suspicion by a survivor *)
  convergence : float list;  (** crash to view installed, per member *)
  join : float list;  (** join announced to joiner's first install *)
}

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

let derive ?(crashes = []) trace =
  let detection = ref [] and convergence = ref [] and join = ref [] in
  let detections = Trace.detections trace in
  let installs = Trace.installs trace in
  let owners = Trace.owners trace in
  List.iter
    (fun (q, t0) ->
      let first =
        List.fold_left
          (fun acc (observer, suspect, (e : Trace.event)) ->
            if Pid.equal suspect q && (not (Pid.equal observer q)) && e.time >= t0
            then
              match acc with
              | Some t when t <= e.time -> acc
              | _ -> Some e.time
            else acc)
          None detections
      in
      Option.iter (fun t -> detection := (t -. t0) :: !detection) first;
      List.iter
        (fun o ->
          if not (Pid.equal o q) then begin
            let before = ref None and after = ref None in
            List.iter
              (fun ((e : Trace.event), _ver, members) ->
                if Pid.equal e.owner o then
                  if e.time <= t0 then before := Some members
                  else if !after = None && not (List.exists (Pid.equal q) members)
                  then after := Some e.time)
              installs;
            match (!before, !after) with
            | Some held, Some t when List.exists (Pid.equal q) held ->
              convergence := (t -. t0) :: !convergence
            | _ -> ()
          end)
        owners)
    (crash_times ~crashes trace);
  List.iter
    (fun (q, t0) ->
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
      Option.iter (fun t -> join := (t -. t0) :: !join) first)
    (join_times trace);
  { detection = List.rev !detection;
    convergence = List.rev !convergence;
    join = List.rev !join }

(* [Error] describes the first histogram whose count or sum differs from
   the exact samples; sums are accumulated in the library's order, so they
   must agree to the last bit. *)
let cross_check ?crashes trace t =
  let reg = Obs.create () in
  Latency.observe ?crashes reg trace;
  let snap = Obs.snapshot reg in
  let check name samples =
    let count = List.length samples in
    let sum = List.fold_left ( +. ) 0.0 samples in
    match Obs.Snapshot.find snap name with
    | Some (Obs.Snapshot.Histogram h) ->
      let hc = Obs.Snapshot.count h in
      if hc <> count || h.Obs.Snapshot.sum <> sum then
        Error
          (Printf.sprintf "%s: exact %d samples sum %.17g, library %d sum %.17g"
             name count sum hc h.Obs.Snapshot.sum)
      else Ok ()
    | _ -> Error (Printf.sprintf "%s: no histogram" name)
  in
  Result.bind (check Latency.crash_to_first_suspicion t.detection) (fun () ->
      Result.bind (check Latency.crash_to_view_installed t.convergence)
        (fun () -> check Latency.join_to_installed t.join))

(* Suspicions of processes that never crashed: the detector's false
   positives (ground truth is the crash set, plus orchestrated kills). *)
let false_suspicions ?(crashes = []) trace =
  let crashed = List.map fst (crash_times ~crashes trace) in
  List.length
    (List.filter
       (fun (_observer, suspect, _e) -> not (List.exists (Pid.equal suspect) crashed))
       (Trace.detections trace))
