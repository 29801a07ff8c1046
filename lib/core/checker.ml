(* Executable checkers for the GMP specification (§2.3) over recorded runs.

   Every property test and every experiment runs these; a reproduction of a
   protocol paper is only credible if the specification itself is machine-
   checked on each run.

   The property logic is written once, in [Make], against an abstract set of
   trace queries. The default instance runs on {!Trace}'s incremental
   indexes (O(touched) per query, so a full safety check is near-linear in
   the trace). The test suite instantiates [Make] over the seed's naive list
   scans as the oracle the indexes are checked against. *)

open Gmp_base

type violation = { property : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.property v.detail

let v property fmt = Fmt.kstr (fun detail -> { property; detail }) fmt

module type QUERIES = sig
  val by_owner : Trace.t -> Pid.t -> Trace.event list
  val installs : Trace.t -> (Trace.event * int * Pid.t list) list
  val installs_of : Trace.t -> Pid.t -> (int * Pid.t list) list
  val detections : Trace.t -> (Pid.t * Pid.t * Trace.event) list
  val violations : Trace.t -> (Pid.t * string) list
  val owners : Trace.t -> Pid.t list
end

module type S = sig
  val check_gmp0 : Trace.t -> initial:Pid.t list -> violation list
  val check_gmp1 : Trace.t -> violation list
  val check_gmp23 : Trace.t -> violation list
  val check_gmp4 : Trace.t -> violation list
  val check_gmp5 : Trace.t -> final_view:Pid.t list -> violation list
  val check_internal : Trace.t -> violation list
  val check_safety : Trace.t -> initial:Pid.t list -> violation list
end

module Make (Q : QUERIES) : S = struct
  (* GMP-0: the initial system view exists along the initial cut:
     every initial process installs version 0 = Proc. *)
  let check_gmp0 trace ~initial =
    List.concat_map
      (fun pid ->
        match Q.installs_of trace pid with
        | (0, members) :: _ ->
          if List.length members = List.length initial
             && List.for_all2 Pid.equal members initial
          then []
          else
            [ v "GMP-0" "%a installed an initial view different from Proc"
                Pid.pp pid ]
        | (ver, _) :: _ ->
          if ver > 0 then [] (* a joiner: its first view is a later version *)
          else [ v "GMP-0" "%a has a negative initial version" Pid.pp pid ]
        | [] -> [ v "GMP-0" "%a never installed any view" Pid.pp pid ])
      initial

  (* GMP-1: q leaves Memb(p) only after faultyp(q): every Removed event of p
     is preceded, in p's history, by a Faulty event for the same target. *)
  let check_gmp1 trace =
    let owners = Q.owners trace in
    List.concat_map
      (fun pid ->
        let events = Q.by_owner trace pid in
        let _, violations =
          List.fold_left
            (fun (suspected, violations) (e : Trace.event) ->
              match e.kind with
              | Trace.Faulty q -> (Pid.Set.add q suspected, violations)
              | Trace.Removed { target; new_ver } ->
                if Pid.Set.mem target suspected then (suspected, violations)
                else
                  ( suspected,
                    v "GMP-1" "%a removed %a (v%d) without believing it faulty"
                      Pid.pp pid Pid.pp target new_ver
                    :: violations )
              | _ -> (suspected, violations))
            (Pid.Set.empty, []) events
        in
        List.rev violations)
      owners

  (* GMP-2 and GMP-3: a unique sequence of system views, and identical local
     view sequences. Operationally: any two processes that install the same
     version install the same membership, and each process's versions are
     consecutive from its first. *)
  let check_gmp23 trace =
    let installs = Q.installs trace in
    (* version -> first (owner, membership, |membership|) seen *)
    let by_ver = Hashtbl.create 32 in
    let agreement =
      List.concat_map
        (fun ((e : Trace.event), ver, members) ->
          match Hashtbl.find_opt by_ver ver with
          | None ->
            Hashtbl.add by_ver ver (e.owner, members, List.length members);
            []
          | Some (first_owner, first_members, first_len) ->
            if
              members == first_members
              || (List.compare_length_with members first_len = 0
                  && List.for_all2 Pid.equal members first_members)
            then []
            else
              [ v "GMP-2/3" "version %d: %a has {%a} but %a has {%a}" ver Pid.pp
                  e.owner
                  Fmt.(list ~sep:(any ",") Pid.pp)
                  members Pid.pp first_owner
                  Fmt.(list ~sep:(any ",") Pid.pp)
                  first_members ])
        installs
    in
    let continuity =
      List.concat_map
        (fun pid ->
          let versions = List.map fst (Q.installs_of trace pid) in
          match versions with
          | [] -> []
          | first :: rest ->
            let _, violations =
              List.fold_left
                (fun (prev, violations) ver ->
                  if ver = prev + 1 then (ver, violations)
                  else
                    ( ver,
                      v "GMP-3" "%a skipped from version %d to %d" Pid.pp pid
                        prev ver
                      :: violations ))
                (first, []) rest
            in
            List.rev violations)
        (Q.owners trace)
    in
    agreement @ continuity

  (* GMP-4: processes are never re-instated: once removed from p's local view,
     a pid never reappears in p's later views (same incarnation). Single pass
     over the owner's view sequence: a member whose last appearance is not the
     immediately preceding view was removed in between and has come back.
     O(total view members) hashtable operations per owner. *)
  let check_gmp4 trace =
    List.concat_map
      (fun pid ->
        let last_seen = Pid.Tbl.create 64 in
        let violations = ref [] in
        List.iteri
          (fun i (_, members) ->
            List.iter
              (fun q ->
                match Pid.Tbl.find_opt last_seen q with
                | None -> Pid.Tbl.add last_seen q (ref i)
                | Some last ->
                  if !last < i - 1 then
                    violations :=
                      v "GMP-4" "%a re-instated %a to its local view" Pid.pp
                        pid Pid.pp q
                      :: !violations;
                  last := i)
              members)
          (Q.installs_of trace pid);
        List.rev !violations)
      (Q.owners trace)

  (* GMP-5: every detection is eventually resolved: for each faultyp(q) with p
     a group member at the time, eventually q or p leaves the system view.
     Checked against the final agreed view of a quiescent run. *)
  let check_gmp5 trace ~final_view =
    let final_set = Pid.Set.of_list final_view in
    let in_final p = Pid.Set.mem p final_set in
    List.filter_map
      (fun (observer, suspected, (_ : Trace.event)) ->
        if in_final observer && in_final suspected then
          Some
            (v "GMP-5" "%a suspected %a but both are in the final view" Pid.pp
               observer Pid.pp suspected)
        else None)
      (Q.detections trace)

  (* Internal Violation trace events (broken invariants noticed at runtime). *)
  let check_internal trace =
    List.map
      (fun (owner, detail) -> v "internal" "%a: %s" Pid.pp owner detail)
      (Q.violations trace)

  let check_safety trace ~initial =
    check_gmp0 trace ~initial @ check_gmp1 trace @ check_gmp23 trace
    @ check_gmp4 trace @ check_internal trace
end

include Make (Trace)

(* Liveness (not a numbered GMP property, but the point of the exercise):
   after quiescence the operational processes agree on one view, and that
   view contains no process that really crashed or quit. *)
let check_convergence ~surviving_views ~dead =
  match surviving_views with
  | [] -> [] (* everyone died; vacuously converged *)
  | (p0, ver0, members0) :: rest ->
    let agreement =
      List.concat_map
        (fun (p, ver, members) ->
          if
            ver = ver0
            && List.length members = List.length members0
            && List.for_all2 Pid.equal members members0
          then []
          else
            [ v "convergence" "%a at v%d disagrees with %a at v%d" Pid.pp p ver
                Pid.pp p0 ver0 ])
        rest
    in
    let no_dead =
      List.filter_map
        (fun q ->
          if List.exists (Pid.equal q) members0 then
            Some (v "convergence" "dead process %a is in the final view" Pid.pp q)
          else None)
        dead
    in
    let all_present =
      List.concat_map
        (fun (p, _, _) ->
          if List.exists (Pid.equal p) members0 then []
          else
            [ v "convergence" "operational %a is not in the final view" Pid.pp p ])
        surviving_views
    in
    agreement @ no_dead @ all_present

(* Full check for a quiescent run: safety over the trace, plus liveness
   (convergence and GMP-5) against the final states. The sim's Group harness
   and the live cluster's trace reassembly both call this. *)
let check_run ?(liveness = true) trace ~initial ~surviving_views ~dead
    ~final_view =
  let safety = check_safety trace ~initial in
  if not liveness then safety
  else
    safety
    @ check_convergence ~surviving_views ~dead
    @ check_gmp5 trace ~final_view
