(** Hierarchical membership management (§8's variation).

    A replicated registry of {e client} processes maintained by a server
    group: clients are not group members — "exclusion from it models the
    end of that client's need for the service". The coordinator sequences
    roster changes over the membership layer's application channel;
    failover rides the membership protocol, and a snapshot re-broadcast on
    every view change carries the roster across coordinator changes and
    into joiners. Mirroring GMP-4, an expelled client (same incarnation) is
    never re-enrolled. *)

open Gmp_base

type t

val attach : Member.t -> t
(** Installs the roster's app handler and view-change hook on the member.
    Attach to every member of the server group. *)

val member : t -> Member.t
val clients : t -> Pid.Set.t
val expelled : t -> Pid.Set.t
val sequence : t -> int
(** Number of roster changes applied. *)

val is_client : t -> Pid.t -> bool

val enroll : t -> Pid.t -> unit
(** Request admission of a client (callable on any server; routed to the
    coordinator). Re-enrolment of an expelled incarnation is refused. *)

val expel : t -> Pid.t -> unit
val pp : t Fmt.t
