(** Unified observability: one typed metrics registry shared by the
    simulator and the live runtime.

    A registry holds named counters, gauges and fixed-bucket histograms.
    Recording is O(1) (an increment, or a binary search over a constant
    bucket layout) and allocation-free, so instruments can sit on hot
    paths in both worlds. It is the one place a counter's value lives:
    the per-category message tallies ([msg.*]) and the live transport
    counters ([transport.*]) are plain counters here like any other.

    Everything observable funnels through {!snapshot}: an immutable,
    name-sorted capture that serializes to JSON deterministically (same
    observations in the same order produce byte-identical text — the
    property the simulator's same-seed CI gate pins), parses back, and
    merges commutatively and associatively across processes (counters and
    histogram buckets add, gauges take the max), which is how per-node
    metrics lines become one cluster-wide report. *)

open Gmp_base

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : registry -> string -> counter
(** Register (or retrieve) the counter named so. Raises
    [Invalid_argument] if the name is already a different metric kind. *)

val inc : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : registry -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets:float array -> registry -> string -> histogram
(** Register (or retrieve) a histogram with the given bucket upper edges
    (strictly increasing, finite; default {!latency_buckets}). Retrieval
    with a different layout raises [Invalid_argument]. *)

val observe : histogram -> float -> unit
(** Bucket semantics are upper-inclusive: bucket [i] counts values [v]
    with [edges.(i-1) < v <= edges.(i)]; values above the last edge land
    in a final overflow bucket. *)

val latency_buckets : float array
(** Log-spaced edges from 1 ms to 500 (seconds on a live wall clock,
    plain time units under the simulator's virtual clock): the default
    layout for every latency histogram, identical in both worlds so
    snapshots merge. *)

val round_buckets : float array
(** Small-integer edges (1..64) for per-burst retransmit-round depths. *)

module Snapshot : sig
  type histogram_data = {
    edges : float array;
    counts : int array;  (** length [Array.length edges + 1]: overflow last *)
    sum : float;
  }

  type metric =
    | Counter of int
    | Gauge of float
    | Histogram of histogram_data

  type t

  val empty : t

  val metrics : t -> (string * metric) list
  (** Sorted by name. *)

  val find : t -> string -> metric option
  val count : histogram_data -> int

  val quantile : histogram_data -> float -> float option
  (** Conservative bucket-edge estimate: the upper edge of the bucket
      holding the rank-[ceil (q * count)] observation. [None] on an empty
      histogram; [Some infinity] when the rank lands in overflow. *)

  val merge : t -> t -> t
  (** Commutative and associative. Raises [Invalid_argument] when one
      name carries two kinds or two bucket layouts. *)

  val merge_all : t list -> t

  val to_json : t -> Json.t
  (** Deterministic: fields sorted by name; counters as bare ints, gauges
      as [{"gauge": x}], histograms as
      [{"buckets": [...], "counts": [...], "sum": x}]. *)

  val of_json : Json.t -> (t, string) result
  val pp : t Fmt.t
end

val snapshot : registry -> Snapshot.t
