(* Hierarchical membership management - the paper's §8 variation:

     "by not requiring processes to be members of their own local views, we
      can create a hierarchical management service. The group might be a
      set of clients with exclusion from it modelling the end of that
      client's need for the service."

   A roster is a replicated registry of *client* processes maintained by a
   server group. Clients are not group members: they do not vote, do not
   run the protocol, and their "exclusion" (expulsion) just ends their
   service relationship. The server group's coordinator sequences roster
   changes and replicates them over the membership layer's application
   channel; coordinator failover rides the membership protocol itself, and
   a full snapshot is re-broadcast on every view change so joiners and
   stragglers converge.

   Mirroring GMP-4, an expelled client (same incarnation) is never
   re-enrolled; a recovered client must come back as a new incarnation. *)

open Gmp_base

type Wire.app +=
  | Roster_request of { enroll : bool; client : Pid.t }
      (* any server -> coordinator *)
  | Roster_commit of { rseq : int; enroll : bool; client : Pid.t }
      (* coordinator -> servers: ordered change *)
  | Roster_snapshot of {
      snap_rseq : int;
      clients : Pid.t list;
      expelled : Pid.t list;
    }
      (* coordinator -> servers, on view change *)

type t = {
  member : Member.t;
  mutable clients : Pid.Set.t;
  mutable expelled : Pid.Set.t;
  mutable rseq : int; (* changes applied *)
  mutable chained : src:Pid.t -> Wire.app -> unit;
      (* non-roster app traffic falls through to the previous handler *)
}

let member t = t.member
let clients t = t.clients
let expelled t = t.expelled
let sequence t = t.rseq
let is_client t p = Pid.Set.mem p t.clients

let apply t ~rseq ~enroll ~client =
  if rseq = t.rseq + 1 then begin
    (* In-order change from the (FIFO) coordinator channel. *)
    t.rseq <- rseq;
    if enroll then t.clients <- Pid.Set.add client t.clients
    else begin
      t.clients <- Pid.Set.remove client t.clients;
      t.expelled <- Pid.Set.add client t.expelled
    end
  end

let adopt_snapshot t ~snap_rseq ~clients ~expelled =
  if snap_rseq >= t.rseq then begin
    t.rseq <- snap_rseq;
    t.clients <- Pid.Set.of_list clients;
    t.expelled <- Pid.Set.of_list expelled
  end

let broadcast_snapshot t =
  Member.broadcast_app t.member
    (Roster_snapshot
       { snap_rseq = t.rseq;
         clients = Pid.Set.elements t.clients;
         expelled = Pid.Set.elements t.expelled })

let coordinate t ~enroll ~client =
  (* Order and replicate one change; reject re-enrolment of the expelled
     (the GMP-4 analogue) and redundant changes. *)
  let admissible =
    if enroll then
      (not (Pid.Set.mem client t.clients))
      && not (Pid.Set.mem client t.expelled)
    else Pid.Set.mem client t.clients
  in
  if admissible then begin
    let rseq = t.rseq + 1 in
    apply t ~rseq ~enroll ~client;
    Member.broadcast_app t.member (Roster_commit { rseq; enroll; client })
  end

let handle t ~src msg =
  match msg with
  | Roster_request { enroll; client } ->
    if Member.is_mgr t.member then coordinate t ~enroll ~client
    else if not (Pid.equal (Member.manager t.member) (Member.pid t.member))
    then
      (* Forward towards the coordinator. *)
      Member.send_app t.member ~dst:(Member.manager t.member)
        (Roster_request { enroll; client })
  | Roster_commit { rseq; enroll; client } -> apply t ~rseq ~enroll ~client
  | Roster_snapshot { snap_rseq; clients; expelled } ->
    adopt_snapshot t ~snap_rseq ~clients ~expelled
  | other -> t.chained ~src other

let attach member =
  let t =
    { member;
      clients = Pid.Set.empty;
      expelled = Pid.Set.empty;
      rseq = 0;
      chained = (fun ~src:_ _ -> ()) }
  in
  Member.set_app_handler member (fun ~src msg -> handle t ~src msg);
  Member.set_on_view_change member (fun m ->
      (* The (possibly new) coordinator re-synchronizes everyone - this is
         what carries the roster across failovers and into joiners. *)
      if Member.is_mgr m then broadcast_snapshot t);
  t

let request t ~enroll ~client =
  (* Entry point on any server (e.g. on behalf of a connecting client). *)
  if Member.is_mgr t.member then coordinate t ~enroll ~client
  else
    Member.send_app t.member ~dst:(Member.manager t.member)
      (Roster_request { enroll; client })

let enroll t client = request t ~enroll:true ~client
let expel t client = request t ~enroll:false ~client

let pp ppf t =
  Fmt.pf ppf "roster@%a rseq=%d clients={%a} expelled={%a}" Pid.pp
    (Member.pid t.member) t.rseq
    Fmt.(list ~sep:(any ",") Pid.pp)
    (Pid.Set.elements t.clients)
    Fmt.(list ~sep:(any ",") Pid.pp)
    (Pid.Set.elements t.expelled)
