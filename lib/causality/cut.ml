(* Consistent cuts over vector-timestamped event logs.

   A cut is a per-process frontier: for each process, the number of its events
   included. The cut is consistent iff it is closed under happens-before
   (Definition in the paper, after Lamport): with vector timestamps this
   reduces to a frontier check. *)

open Gmp_base

type 'a event = {
  owner : Pid.t;
  index : int; (* 1-based position in the owner's history *)
  time : float; (* global simulation time, for debugging only *)
  vc : Vector_clock.t;
  data : 'a;
}

type 'a log = 'a event list (* in global emission order *)

let happened_before e1 e2 = Vector_clock.lt e1.vc e2.vc

let concurrent e1 e2 = Vector_clock.concurrent e1.vc e2.vc

type frontier = int Pid.Map.t (* events included per process; absent = 0 *)

let frontier_get f pid =
  match Pid.Map.find_opt pid f with None -> 0 | Some n -> n

(* The cut is consistent iff for every included event e and every process q,
   the knowledge e carries about q (vc(e).(q)) is included in the cut:
   vc(e).(q) <= frontier(q). We check only each process's frontier event: its
   vector clock dominates all earlier events of that process. *)
let is_consistent log frontier =
  let last_included =
    List.fold_left
      (fun acc e ->
        if e.index <= frontier_get frontier e.owner then
          match Pid.Map.find_opt e.owner acc with
          | Some prev when prev.index >= e.index -> acc
          | _ -> Pid.Map.add e.owner e acc
        else acc)
      Pid.Map.empty log
  in
  Pid.Map.for_all
    (fun _owner e ->
      List.for_all
        (fun (pid, n) -> n <= frontier_get frontier pid)
        (Vector_clock.to_list e.vc))
    last_included
  (* Events by processes not present in the frontier must also be accounted
     for: any vc entry for a process with frontier 0 and a positive count
     fails above because frontier_get returns 0. *)

let frontier_of_events events =
  List.fold_left
    (fun acc (e : _ event) ->
      let current = frontier_get acc e.owner in
      Pid.Map.add e.owner (max current e.index) acc)
    Pid.Map.empty events

(* Least consistent cut containing the given events: start from their
   frontier and extend until closed under happens-before. Termination: the
   frontier only grows, bounded by the log. *)
let closure log events =
  let by_owner = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = Pid.to_string e.owner in
      Hashtbl.replace by_owner (key, e.index) e)
    log;
  let find owner index =
    Hashtbl.find_opt by_owner (Pid.to_string owner, index)
  in
  let rec extend frontier =
    let grow =
      Pid.Map.fold
        (fun owner n acc ->
          match find owner n with
          | None -> acc
          | Some e ->
            List.fold_left
              (fun acc (pid, k) ->
                if k > frontier_get frontier pid then (pid, k) :: acc else acc)
              acc
              (Vector_clock.to_list e.vc))
        frontier []
    in
    match grow with
    | [] -> frontier
    | additions ->
      let frontier =
        List.fold_left
          (fun acc (pid, k) -> Pid.Map.add pid (max k (frontier_get acc pid)) acc)
          frontier additions
      in
      extend frontier
  in
  extend (frontier_of_events events)

let leq_frontier f g =
  Pid.Map.for_all (fun pid n -> n <= frontier_get g pid) f

let lt_frontier f g = leq_frontier f g && not (leq_frontier g f)
