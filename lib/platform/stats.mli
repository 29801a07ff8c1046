(** Per-category message statistics.

    The paper's §7.2 counts protocol messages only (the failure-detection
    mechanism is an oracle); tagging every send with a category lets the
    benches count exactly what the paper counts.

    Categories are interned into dense integer ids through a global,
    process-wide registry ({!intern} is idempotent and cheap to call at
    module-initialization time). The recording path takes the interned id
    and is a single array increment; the query API stays string-keyed. *)

type t

type category
(** An interned category id (dense, process-global). *)

val intern : string -> category
(** Intern a category name; returns the same id for the same name. Raises
    [Invalid_argument] for a name not yet interned while the registry is
    {!freeze}-d. *)

val freeze : unit -> unit
(** Forbid interning new names. Parallel harnesses call this before spawning
    worker domains: a frozen registry is immutable, so concurrent lookups
    need no lock; an attempted late intern fails loudly instead of racing. *)

val thaw : unit -> unit
(** Re-allow interning, once all worker domains have been joined. *)

val name : category -> string
(** Inverse of {!intern}. *)

val create : unit -> t

val record_sent : t -> category:category -> unit
val record_delivered : t -> category:category -> unit
val record_dropped : t -> category:category -> unit

val sent : t -> category:string -> int
val delivered : t -> category:string -> int
val dropped : t -> category:string -> int

val total_sent : t -> int
val total_delivered : t -> int
val total_dropped : t -> int

val sent_excluding : t -> categories:string list -> int
(** Total sends outside the given categories (e.g. excluding heartbeats). *)

val categories : t -> string list
val snapshot : t -> (string * int * int * int) list
(** [(category, sent, delivered, dropped)] rows. *)

val reset : t -> unit

val register_views : t -> Gmp_obs.Obs.registry -> unit
(** Expose the whole table to a metrics registry as
    [msg.<category>.sent] / [.delivered] / [.dropped] snapshot views;
    the recording path is untouched. *)

val pp : t Fmt.t

type checkpoint
(** Copy of the counters at capture time (the category registry, being
    process-global configuration, is not part of it). *)

val checkpoint : t -> checkpoint

val restore : t -> checkpoint -> unit
(** Rewind the counters to the captured values. A checkpoint stays valid
    across any number of restores. *)
