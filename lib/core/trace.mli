(** Run traces.

    Every protocol-relevant step of every process is recorded with its
    owner, local history index and vector clock, so {!Checker} can decide
    the GMP properties and {!Epistemic} can reason about consistent cuts. *)

open Gmp_base
open Gmp_causality

type kind =
  | Faulty of Pid.t  (** owner executed faulty(target) *)
  | Operating of Pid.t  (** owner learnt target is joining *)
  | Removed of { target : Pid.t; new_ver : int }
  | Added of { target : Pid.t; new_ver : int }
  | Installed of { ver : int; view_members : Pid.t list }
  | Quit of string  (** protocol-mandated quit, with reason *)
  | Crashed  (** injected real crash *)
  | Initiated_reconf of { at_ver : int }
  | Proposed of { target_ver : int; ops : Types.op list }
  | Committed of { ver : int; commit_kind : [ `Update | `Reconf ] }
  | Became_mgr of { at_ver : int }
  | Violation of string  (** broken runtime invariant; checkers flag these *)

type event = {
  owner : Pid.t;
  index : int;  (** owner's local history position *)
  time : float;
  vc : Vector_clock.t;
  kind : kind;
}

type t

val create : unit -> t

val record :
  t -> owner:Pid.t -> index:int -> time:float -> vc:Vector_clock.t -> kind -> unit

val set_on_record : t -> (event -> unit) -> unit
(** Install an observer called with every event as it is recorded (after
    indexing). A live node uses this to flush each event to its on-disk log
    the moment it happens, so the log survives a SIGKILL mid-run. At most
    one observer; the last one installed wins. *)

val events : t -> event list
(** In global recording order. O(length); prefer {!iter} / {!fold} / {!get}
    on hot paths. *)

val length : t -> int

val get : t -> int -> event
(** [get t i] is the [i]-th recorded event (0-based); O(1). Raises
    [Invalid_argument] out of bounds. *)

val iter : t -> (event -> unit) -> unit
(** Apply to every event in recording order, without building a list. *)

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a

val by_owner : t -> Pid.t -> event list
(** O(result): served from the per-owner index. *)

val installs : t -> (event * int * Pid.t list) list
val installs_of : t -> Pid.t -> (int * Pid.t list) list
val detections : t -> (Pid.t * Pid.t * event) list
(** [(observer, suspect, event)] triples. *)

val quits : t -> (Pid.t * [ `Quit of string | `Crashed ]) list
val violations : t -> (Pid.t * string) list
val owners : t -> Pid.t list
(** In first-appearance order. *)

type checkpoint
(** Truncate-to-mark capture: the event count plus every index vector's
    cursor. O(owners) to take; {!restore} rewinds the cursors in place (the
    backing arrays keep stale tails that the next appends overwrite), drops
    owners first recorded after the capture, and stays valid across any
    number of restores. The {!set_on_record} observer is harness wiring, not
    trace state, and is unaffected. *)

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit

val pp_kind : kind Fmt.t
val pp_event : event Fmt.t
val pp : t Fmt.t

val pp_timeline : t Fmt.t
(** Compact ASCII space-time diagram: one column per process, one row per
    protocol milestone (the textual analogue of the paper's figures). *)
