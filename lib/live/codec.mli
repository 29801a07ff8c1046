(** Versioned binary codec for the live runtime's datagrams.

    Frames carry a fixed header (magic ["GM"], a version byte, a 32-bit
    body length) so truncated, oversized or foreign datagrams are rejected
    before any field is read. The exact byte layout is pinned by the golden
    files under [test/golden]. *)

open Gmp_base
open Gmp_causality
open Gmp_core

type Wire.app += Blob of string
      (** The only application payload that exists on the real wire:
          serialized bytes. Encoding any other [Wire.app] constructor
          raises [Invalid_argument]. *)

type netem_spec = {
  peer : Pid.t option;
      (** which incoming link to retune; [None] = the node's default
          (all-links) model *)
  n_loss : float;  (** in [\[0,1)] *)
  n_latency : float;  (** seconds, [>= 0] *)
  n_jitter : float;  (** seconds, [>= 0]; delay is latency +/- jitter *)
  n_dup : float;  (** in [\[0,1\]] *)
  n_reorder : float;  (** in [\[0,1\]] *)
}
(** The wire form of a {!Gmp_net.Netem} model: the CLI's
    loss/latency/jitter/dup/reorder vocabulary. Decoding validates every
    range, so a hostile frame cannot smuggle an invalid model. *)

(** Out-of-band orchestrator commands (fault injection, teardown). All are
    idempotent: the acked control plane may replay them. *)
type ctrl =
  | Shutdown  (** exit cleanly after flushing the event log *)
  | Blackhole of Pid.t  (** silently drop all traffic from this peer *)
  | Unblackhole of Pid.t
  | Set_netem of netem_spec  (** retune fault injection at runtime *)
  | Get_metrics
      (** scrape the node's metrics registry; answered with {!Metrics}
          rather than a bare [Ctrl_ack] *)

type frame =
  | Data of {
      src : Pid.t;
      chan_seq : int;  (** per-(src,dst) ARQ sequence number *)
      vc : Vector_clock.t;  (** sender's clock at send time *)
      msg : Wire.t;
    }
  | Ack of { src : Pid.t; ack_next : int }
      (** cumulative: "I have delivered everything below [ack_next]" *)
  | Ctrl of { token : int; cmd : ctrl }
      (** acked control plane: the receiver answers [Ctrl_ack] with the
          same token after applying [cmd]; senders retry until acked, so
          fault commands survive the loss they inject *)
  | Ctrl_ack of { token : int }
  | Metrics of { token : int; payload : string }
      (** reply to [Ctrl Get_metrics]: the node's registry snapshot as
          compact JSON text; carries the request's token, so it doubles as
          the ack the retrying sender waits for *)

type error =
  | Truncated of string
  | Oversized of { declared : int; max : int }
  | Bad_magic
  | Unsupported_version of int
  | Malformed of string

val pp_error : error Fmt.t

val version : int
(** Codec revision this build speaks. *)

val header_len : int
(** Bytes of the fixed frame header (magic + version + body length) —
    what a stream decoder must buffer before it knows a frame's size. *)

val max_frame : int
(** Upper bound on an encoded body's length; larger declared lengths are
    rejected without allocation. *)

val encode_msg : Wire.t -> string
(** Body-only encoding of a protocol message (no frame header); the
    round-trip surface the golden tests pin. *)

val decode_msg : string -> (Wire.t, error) result
(** Inverse of {!encode_msg}; rejects trailing bytes. *)

val encode_frame : frame -> string
(** Full frame: header plus body. *)

val with_chan_seq : string -> int -> string
(** A copy of an encoded [Data] frame with its [chan_seq] replaced: the
    frame is encoded once and each transmission is stamped. Raises
    [Invalid_argument] on any other frame or an out-of-range number. *)

val boundary :
  Bytes.t ->
  off:int ->
  len:int ->
  [ `Frame of int | `Need_more | `Error of error ]
(** The frame boundary rule, shared by every reader of the wire: given
    [len] bytes at [off], [`Frame n] when a whole frame of [n] bytes
    (header included) starts there, [`Need_more] while its header or body
    is incomplete, and [`Error] on a header-level error (bad magic,
    unsupported version, oversized length), past which no boundary can be
    found. Only the header is read. *)

val decode_frame : string -> (frame, error) result
(** Inverse of {!encode_frame}. Every failure mode is a clean [Error] -
    decoding never raises on hostile input. *)

val decode_frames : string -> (frame -> unit) -> (unit, error) result
(** Decode one or more whole frames back to back - a datagram may carry
    an ack in front of a data frame - handing each to the callback in
    order. The first frame that does not decode ends the walk: it and the
    rest are dropped, and its error is returned. *)
