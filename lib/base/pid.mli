(** Process identifiers with incarnation numbers.

    Following the paper's model, a recovered process is a {e new and different
    process instance}: [reincarnate p] names the next instance of the same
    host. Identifiers order first by id, then by incarnation. *)

type t

val make : ?incarnation:int -> int -> t
val id : t -> int
val incarnation : t -> int

val reincarnate : t -> t
(** Next instance of the same host. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string} ("p3", "p3#1"); [None] on anything else. *)

val pp : t Fmt.t

module Set : sig
  include Set.S with type elt = t

  val pp : t Fmt.t
end

module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t

(** Dense interning of pids into slots [0, 1, ...] in first-use order, for
    per-pid state kept in arrays. A lookup reads an array indexed by
    {!id} and compares the pid found there; it hashes only when that was
    another incarnation, or when the id is far past the number of pids
    interned. *)
module Slots : sig
  type pid := t
  type t

  val create : unit -> t

  val intern : t -> pid -> int
  (** The pid's slot, assigning the next free one on first use. *)

  val find : t -> pid -> int
  (** The pid's slot, or [-1] if it was never interned (interns nothing). *)

  val get : t -> int -> pid
  (** The pid in an interned slot. Raises [Invalid_argument] otherwise. *)

  val length : t -> int
  (** Number of interned pids: slots are [0 .. length - 1]. *)

  val truncate : t -> int -> unit
  (** [truncate t n] un-interns every slot [>= n], so the next new pid
      gets slot [n] again. *)
end

val group : ?incarnation:int -> int -> t list
(** [group n] is the initial group [p0 … p(n-1)]. *)
