(** Executable checkers for the GMP specification (§2.3) over recorded
    runs. Every test and experiment pipes its trace through these. *)

open Gmp_base

type violation = { property : string; detail : string }

val pp_violation : violation Fmt.t

(** The trace queries the property logic is written against. The default
    instance below uses {!Trace}'s incremental indexes; the test suite
    supplies a naive list-scan instance as its oracle. *)
module type QUERIES = sig
  val by_owner : Trace.t -> Pid.t -> Trace.event list
  val installs : Trace.t -> (Trace.event * int * Pid.t list) list
  val installs_of : Trace.t -> Pid.t -> (int * Pid.t list) list
  val detections : Trace.t -> (Pid.t * Pid.t * Trace.event) list
  val violations : Trace.t -> (Pid.t * string) list
  val owners : Trace.t -> Pid.t list
end

(** The trace-level checks, abstract in the query implementation. *)
module type S = sig
  val check_gmp0 : Trace.t -> initial:Pid.t list -> violation list
  (** GMP-0: every initial process installs version 0 = Proc. *)

  val check_gmp1 : Trace.t -> violation list
  (** GMP-1: no capricious removals - every [Removed] is preceded (in its
      owner's history) by a [Faulty] for the same target. *)

  val check_gmp23 : Trace.t -> violation list
  (** GMP-2/GMP-3: any two installs of the same version carry the same
      membership, and no process skips a version. *)

  val check_gmp4 : Trace.t -> violation list
  (** GMP-4: once removed from a local view, a pid (same incarnation) never
      reappears in it. *)

  val check_gmp5 : Trace.t -> final_view:Pid.t list -> violation list
  (** GMP-5: every detection is eventually resolved - no suspicion pair
      survives together into the final view of a quiescent run. *)

  val check_internal : Trace.t -> violation list
  (** Runtime-detected invariant breaks ([Trace.Violation] events). *)

  val check_safety : Trace.t -> initial:Pid.t list -> violation list
  (** GMP-0, 1, 2/3, 4 + internal (no liveness / finality assumptions). *)
end

module Make (Q : QUERIES) : S

include S
(** The default checkers, served by {!Trace}'s indexes: a full
    [check_safety] is near-linear in the trace. *)

val check_convergence :
  surviving_views:(Pid.t * int * Pid.t list) list ->
  dead:Pid.t list ->
  violation list
(** Liveness on a quiescent run: operational processes agree on one view
    that contains them all and none of the dead. *)

val check_run :
  ?liveness:bool ->
  Trace.t ->
  initial:Pid.t list ->
  surviving_views:(Pid.t * int * Pid.t list) list ->
  dead:Pid.t list ->
  final_view:Pid.t list ->
  violation list
(** Full check for a quiescent run (safety, and with [liveness] also
    convergence and GMP-5 against the final states). World-agnostic: the
    sim's [Group.check] and the live cluster's reassembled traces both land
    here. [final_view] is the agreed final membership ([[]] if none). *)
