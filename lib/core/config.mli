(** Protocol configuration. *)

type t = {
  heartbeats : bool;
      (** Run the heartbeat detector (F1). Scripted experiments may turn it
          off and drive suspicions themselves; liveness then depends on the
          script covering every stall. *)
  heartbeat_interval : float;
  heartbeat_timeout : float;
  compressed : bool;
      (** Piggyback the next invitation on commit messages (§3.1). Off =
          the plain two-phase algorithm, used as the §7.2 comparison. *)
  require_majority_update : bool;
      (** Final algorithm (Figure 8): the coordinator needs a majority of
          OKs before committing. The basic algorithm (§3.1, coordinator
          never fails) runs without it and tolerates [n-1] failures. *)
  require_majority_reconf : bool;
      (** GMP-2 uniqueness: reconfiguration phases need majorities. Off =
          the §8 partitioned variation (each side of a partition runs its
          own view sequence; divergence is expected and reported). *)
  reconf_reuse : bool;
      (** §8's future-work optimization: on suspecting the coordinator or
          an answered initiator, pre-send the interrogation reply to the
          predicted successor, which then skips interrogating this process.
          Off by default. *)
  reconf_reuse_grace : float;
      (** How long an initiator-to-be waits for pre-sent replies to land
          before interrogating (latency traded for messages). *)
}

val default : t
(** Final algorithm: heartbeats on, compression on, majorities required. *)

val basic : t
(** §3.1's basic algorithm (no majority requirement). *)

val uncompressed : t
(** Final algorithm without compressed rounds (for the §7.2 comparison). *)

val scripted_only : t
(** No heartbeat detector: suspicions come only from scripts and gossip. *)

val optimized : t
(** Final algorithm with the §8 reconfiguration-reuse optimization on. *)

val partitionable : t
(** The §8 partitioned variation (Deceit-style): no majority requirements,
    so minority partitions keep operating under their own views. System
    views are no longer unique; reconciliation is the application's job. *)
