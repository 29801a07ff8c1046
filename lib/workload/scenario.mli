(** Scenario builders: one per experiment in DESIGN.md's index.

    Each builds a {!Gmp_runtime.Group}, injects the experiment's schedule,
    runs to quiescence and returns the measurements §7.2 talks about,
    together with the group for further inspection. *)

open Gmp_base
open Gmp_core
open Gmp_runtime

type measurement = {
  n : int;  (** initial group size *)
  protocol_msgs : int;  (** §7.2 accounting: update + reconfiguration *)
  update_msgs : int;
  reconf_msgs : int;
  views_installed : int;  (** highest committed version *)
  violations : Checker.violation list;
}

val measure : ?liveness:bool -> Group.t -> measurement

val single_crash : ?seed:int -> n:int -> unit -> measurement * Group.t
(** E1: plain two-phase exclusion of the junior member; paper: 3n-5. *)

val compressed_pair : ?seed:int -> n:int -> unit -> measurement * Group.t
(** E2: two crashes detected together, so the second exclusion rides the
    contingent invitation; paper: the compressed round costs <= 2n-3. *)

val mgr_crash : ?seed:int -> n:int -> unit -> measurement * Group.t
(** E3: coordinator crash, one successful reconfiguration; paper: 5n-9. *)

val cascade : ?seed:int -> n:int -> kills:int -> unit -> measurement * Group.t
(** E4: [kills] successive reconfigurers die mid-protocol before one
    succeeds; paper: O(n^2), ~(5/2)n^2 in total. [kills] must stay within
    the tolerance [n - majority(n)] or the survivors (correctly) block. *)

val sequence_all :
  ?seed:int -> ?compressed:bool -> n:int -> unit -> measurement * Group.t
(** E5: n-1 successive failures, none the coordinator, on the basic
    (no-majority) configuration; paper: (n-1)^2 total compressed, i.e.
    n-1 per exclusion, vs an extra ~n/2-1 per exclusion uncompressed. *)

val symmetric_single_crash :
  ?seed:int -> n:int -> unit -> int * (Pid.t * int * Pid.t list) list
(** E6: the same single-crash workload on the symmetric baseline; returns
    (messages, final views). Paper: an order of magnitude more. *)

val one_phase_split :
  ?seed:int -> n:int -> unit -> Checker.violation list * (Pid.t * int * Pid.t list) list
(** C1 / Claim 7.1: the one-phase baseline under the proof's cross-suspicion
    split; returns the (expected, non-empty) violations and final views. *)

val real_protocol_split :
  ?seed:int -> n:int -> unit -> Checker.violation list * Group.t
(** The same split schedule on the real protocol: safety must hold. *)

val fig11_n : int
(** Group size of the Figure 11 schedule (7). *)

val two_phase_fig11 :
  ?seed:int -> unit -> Checker.violation list * (Pid.t * int * Pid.t list) list
(** C2 / Claim 7.2: the Figure 11 schedule on the two-phase baseline;
    returns the (expected, non-empty) GMP-2/3 violations and final views. *)

val real_protocol_fig11 :
  ?seed:int -> unit -> Checker.violation list * Group.t
(** The Figure 11 schedule on the real protocol: the would-be invisible
    committer blocks in its proposal phase; safety must hold. *)

val real_protocol_two_proposals :
  ?seed:int -> unit -> Checker.violation list * Group.t
(** Props 5.5/5.6: a nine-process variant in which the final reconfigurer
    sees both in-flight proposals for version 1 and GetStable must
    propagate the lowest-ranked proposer's. *)

val concurrent_initiators :
  ?seed:int -> n:int -> unit -> measurement * Group.t
(** F4 / Figure 4 / Table 1 row 3: two concurrent initiators; exactly one
    regime survives. *)

val scale_single_crash : ?seed:int -> n:int -> unit -> measurement * Group.t
(** E-scale: the E1 single-crash workload with a trimmed horizon and a
    raised livelock guard, usable up to n = 256 and beyond. *)

val churn : ?seed:int -> n:int -> unit -> measurement * Group.t
(** E-scale: coordinator crash, ~n/6 scattered crashes and three joins
    under heavy-tailed delays (the n=32 scale test generalized over n).
    Requires n >= 8. *)

val random_churn : seed:int -> unit -> measurement * Group.t
(** Randomized crashes, joins, spurious suspicions and cascades; used by
    the property tests and the GMP sweep. *)
