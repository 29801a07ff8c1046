(** Simulated network: complete graph of reliable FIFO channels.

    Implements the paper's channel model: lossless, non-generating, FIFO,
    unbounded delays. Additionally supports:
    - per-direction disconnection ({!disconnect}), realizing system property
      S1 (once p believes q faulty, p never again receives from q);
    - crash of endpoints (messages to a down process vanish);
    - partitions that park traffic and release it in FIFO order on {!heal}. *)

open Gmp_base

type 'm t

type 'm send_record = {
  record_src : Pid.t;
  record_dst : Pid.t;
  record_category : Stats.category;
  record_payload : 'm;
  record_time : float;
}

val create :
  ?fifo_epsilon:float ->
  engine:Gmp_sim.Engine.t ->
  rng:Gmp_sim.Rng.t ->
  delay:Delay.t ->
  unit ->
  'm t

val set_handler : 'm t -> (dst_slot:int -> src:Pid.t -> 'm -> unit) -> unit
(** Install the delivery callback (the runtime's dispatcher). It receives
    the destination's {!slot_for} slot, which {!pid_of_slot} maps back to
    the pid. *)

val set_monitor : 'm t -> ('m send_record -> unit) -> unit
(** Observe every send (for tracing); does not affect delivery. *)

val send :
  'm t ->
  src:Pid.t ->
  dst:Pid.t ->
  category:Stats.category ->
  'm ->
  unit
(** Sends from crashed processes are ignored. Raises on [src = dst]. *)

val crash : 'm t -> Pid.t -> unit
val crashed : 'm t -> Pid.t -> bool

val disconnect : 'm t -> at:Pid.t -> from:Pid.t -> unit
(** [disconnect t ~at:p ~from:q]: p stops receiving from q (S1). *)

val is_disconnected : 'm t -> at:Pid.t -> from:Pid.t -> bool

val partition : 'm t -> Pid.t list list -> unit
(** Split into groups; unlisted pids form an implicit extra group. Traffic
    across groups is parked, not lost. *)

val heal : 'm t -> unit
(** Remove the partition and release parked traffic in FIFO order. *)

val reachable : 'm t -> Pid.t -> Pid.t -> bool
val parked_count : 'm t -> int

val slot_for : 'm t -> Pid.t -> int
(** Dense per-network slot of a pid, interning it on first use. Deliveries
    scheduled on the engine are tagged [~proc:dst_slot] and
    [~chan:(src_slot lsl 16 lor dst_slot)]; this exposes the same slot space
    so the explorer can relate engine tags back to processes. *)

val pid_of_slot : 'm t -> int -> Pid.t option
(** Inverse of {!slot_for} for already-interned slots. *)

val decode_chan : 'm t -> int -> (Pid.t * Pid.t) option
(** Decode an engine channel tag back to [(src, dst)], if both endpoints are
    known to this network. *)

val fingerprint : 'm t -> int
(** Order-insensitive-to-construction hash of the network's adversarial
    state: crash flags, disconnections, partition assignment, and parked
    queue lengths per channel. Used by the explorer's state pruning. *)

val stats : 'm t -> Stats.t
val engine : 'm t -> Gmp_sim.Engine.t

type 'm checkpoint
(** Capture of the network's mutable state: pid interning cursor, per-channel
    FIFO cursors and parked queues, crash/disconnect flags, partition map,
    message counters and the network's RNG stream. Restoring
    rewrites the {e same} channel records in place (in-flight delivery
    closures hold them by reference) and un-interns pids first seen after the
    capture. The engine itself is not included — checkpoint it separately. *)

val checkpoint : 'm t -> 'm checkpoint

val restore : 'm t -> 'm checkpoint -> unit
(** A checkpoint stays valid across any number of restores. *)
