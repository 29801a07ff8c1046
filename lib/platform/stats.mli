(** Per-category message statistics.

    The paper's §7.2 counts protocol messages only (the failure-detection
    mechanism is an oracle); tagging every send with a category lets the
    benches count exactly what the paper counts.

    Categories are interned into dense integer ids through a global,
    process-wide registry ({!intern} is idempotent and cheap to call at
    module-initialization time). A table's tallies are counters in a
    {!Gmp_obs.Obs} registry, named [msg.<category>.sent] / [.delivered] /
    [.dropped]; the recording path takes the interned id and is one array
    index plus one increment; the query API stays string-keyed. *)

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

val create : Gmp_obs.Obs.registry -> t
(** A table recording into the given registry. A category's three
    counters appear there at its first record. *)

val registry : t -> Gmp_obs.Obs.registry

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
(** Categories with a nonzero counter, name-sorted. *)

val snapshot : t -> (string * int * int * int) list
(** [(category, sent, delivered, dropped)] rows, one per {!categories}. *)

val pp : t Fmt.t

type checkpoint
(** Copy of the counters at capture time (the category registry, being
    process-global configuration, is not part of it). *)

val checkpoint : t -> checkpoint

val restore : t -> checkpoint -> unit
(** Rewind the counters to the captured values; a counter created after
    the capture goes back to 0. A checkpoint stays valid across any
    number of restores. *)
