(** One live GMP process: the {!Gmp_platform.Shell} over real sockets
    and wall-clock timers.

    A node owns one {!Transport} (UDP datagrams or managed TCP streams)
    and a single-threaded poll loop; protocol callbacks (message
    delivery, timers) run only inside {!run}, never concurrently — the
    concurrency model the protocol core was written against. Reliable
    FIFO channels between nodes come from the go-back-N instance of
    {!Gmp_net.Arq.Machine} (sequence numbers + cumulative acks +
    retransmission on an exponentially backed-off timeout), the paper's
    footnote-2 channel realized over a medium that can genuinely lose frames on either transport — not least
    because the node injects faults against itself: a seeded per-link
    {!Gmp_net.Netem} model applied to every frame at message ingress
    (after transport reassembly, before the protocol), the same fault
    vocabulary the simulator's lossy medium samples. *)

open Gmp_base
open Gmp_core

type t

val create :
  ?peers:(Pid.t * Gmp_net.Endpoint.t) list ->
  ?transport:Transport.kind ->
  ?tcp_config:Transport.tcp_config ->
  ?rto:float ->
  ?rto_max:float ->
  ?netem:Gmp_net.Netem.t ->
  ?netem_seed:int ->
  ?log:(string -> unit) ->
  pid:Pid.t ->
  bind:Gmp_net.Endpoint.t ->
  unit ->
  t
(** Bind a transport (default UDP) on [bind] (port 0 picks an ephemeral
    port; read it back with {!port} or {!endpoint}). [peers] seeds the
    address book; routes to unknown peers are also learnt from their
    traffic, so a joiner only needs its contacts. [rto] is the ARQ's
    initial retransmission timeout (default 0.25 s); on each silent
    retransmit round it doubles up to [rto_max] (default [16 *. rto]) and
    resets on ack progress; an owed ack waits up to [rto / 4] for a data
    frame back to its peer to ride on. [netem] is the default model applied to every
    incoming link (default {!Gmp_net.Netem.none}); [netem_seed] keys the
    per-link RNG streams, so the same seed replays the same per-link
    fault pattern. *)

val platform : t -> Wire.t Gmp_platform.Platform.node
(** The node seen through the world-agnostic seam — what
    [Gmp_core.Member.create] takes. Its [send] and [broadcast] raise
    [Invalid_argument], queueing nothing, for a message whose data frame
    one transport send cannot carry (over UDP, a frame above 65,507
    bytes). The refused send still counts as an event of the process: its
    clock has ticked, as for any send. *)

val run : ?until:float -> t -> unit
(** The poll loop: drain the transport, fire due timers, sleep on
    [select] until the next deadline (timer, transport or [until]).
    Returns when the node halts (protocol quit or crash), an orchestrator
    [Shutdown] arrives, or [until] seconds elapse. *)

val pid : t -> Pid.t

val endpoint : t -> Gmp_net.Endpoint.t
(** The actually-bound local endpoint (ephemeral port resolved). *)

val port : t -> int
(** [Endpoint.port (endpoint t)]. *)

val add_peer : t -> Pid.t -> Gmp_net.Endpoint.t -> unit

val set_netem : t -> ?peer:Pid.t -> Gmp_net.Netem.t -> unit
(** Retune fault injection: replace the model for one incoming link
    ([?peer]) or the default for all links (no [?peer]). This is what a
    [Set_netem] control frame applies. *)

val netem : t -> Gmp_net.Netem.t
(** The current default (all-links) model. *)

val stats : t -> Gmp_platform.Stats.t
val alive : t -> bool

val stopping : t -> bool
(** An orchestrator [Shutdown] control frame arrived. *)

val idle : t -> bool
(** No frame is awaiting an ack on any outgoing channel — everything sent
    so far is known delivered. *)

val transport_kind : t -> string
(** ["udp"] or ["tcp"]. *)

val registry : t -> Gmp_obs.Obs.registry
(** The node's metrics registry, where every one of its counters lives:
    the ARQ's [arq.data_frames_sent] (first transmissions),
    [arq.retransmits], [arq.retransmit_rounds] (retransmit-timer fires),
    [arq.dups_suppressed], [arq.out_of_window_drops], [arq.acks_sent]
    (acks sent alone) and [arq.acks_piggybacked] (acks carried in front
    of a data frame); fault
    injection's [netem.dropped], [netem.duplicated] and
    [netem.reordered]; the transport's [transport.*] counters
    ({!Transport.make}); and the per-category {!stats} table's [msg.*]
    counters. Beside them, the ARQ's [arq.rtt] (wall-clock ack
    round-trips of never-retransmitted frames — Karn's sampling rule;
    they include the peer's wait for data to carry the ack) and
    [arq.backoff_rounds] (retransmit rounds per recovered quiet spell)
    histograms. *)

val metrics : t -> Gmp_obs.Obs.Snapshot.t
(** [Obs.snapshot (registry t)] — also what a [Get_metrics] control frame
    returns over the wire. *)

val clock : t -> Gmp_causality.Vector_clock.t
val blackholed : t -> Pid.Set.t

val close : t -> unit
(** Halt and release the transport. *)
