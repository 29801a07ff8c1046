(** Consistent cuts over vector-timestamped event logs.

    The paper reasons about propositions "true along consistent cuts"; this
    module makes those checks executable on recorded runs. A cut is given by a
    {e frontier}: how many events of each process history it includes. *)

open Gmp_base

type 'a event = {
  owner : Pid.t;
  index : int;  (** 1-based position in the owner's history *)
  time : float;  (** global simulation time (debugging aid, never used for logic) *)
  vc : Vector_clock.t;
  data : 'a;
}

type 'a log = 'a event list

val happened_before : 'a event -> 'b event -> bool
val concurrent : 'a event -> 'b event -> bool

type frontier = int Pid.Map.t

val frontier_get : frontier -> Pid.t -> int
val frontier_of_events : 'a event list -> frontier

val is_consistent : 'a log -> frontier -> bool
(** Closed under happens-before: no included event received a message whose
    send lies outside the cut. *)

val closure : 'a log -> 'a event list -> frontier
(** Least consistent frontier containing the given events. *)

val leq_frontier : frontier -> frontier -> bool
val lt_frontier : frontier -> frontier -> bool
(** The paper's [c < c'] / [c << c'] prefix orders on cuts. *)
