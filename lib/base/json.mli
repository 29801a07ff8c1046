(** Minimal dependency-free JSON builder, printer and parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val null : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t
val list : t list -> t
val obj : (string * t) list -> t
val of_option : ('a -> t) -> 'a option -> t
val pp : t Fmt.t
val to_string : t -> string

val to_compact_string : t -> string
(** Single-line rendering (no newlines regardless of width) — the JSONL
    form live nodes log events in. *)

(** {1 Parsing}

    Enough JSON for what this repository itself emits, which is all it ever
    reads back (the orchestrator consuming live nodes' event logs). Numbers
    without ['.']/[e] parse as {!Int}, others as {!Float}; [\uXXXX] escapes
    (surrogate pairs included) are decoded to UTF-8. *)

val of_string : string -> (t, string) result
(** Whole-string parse; the error carries the byte offset. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an {!Obj} ([None] on other constructors or a missing key). *)

val to_string_opt : t -> string option
val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** Accepts {!Int} too (JSON does not distinguish). *)

val to_list_opt : t -> t list option
val to_obj_opt : t -> (string * t) list option
