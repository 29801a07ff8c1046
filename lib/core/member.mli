(** The per-process protocol state machine.

    Implements the paper's Final Update Algorithm (Figures 8-9), the Final
    Reconfiguration Algorithm (Figure 10) with procedures [Determine] and
    [GetStable] (Figure 6), and the Join procedure (§7), in event-driven
    form over an abstract {!Gmp_platform.Platform.node} — the same state
    machine runs unchanged on the simulator's virtual clock and on real
    sockets under wall clocks ([lib/live]).

    System properties realized here:
    - {b F1}: the heartbeat detector (when configured) feeds suspicions;
    - {b F2}: suspicion sets ride on protocol messages and are adopted on
      receipt;
    - {b S1}: a suspicion permanently disconnects the incoming channel from
      the suspect.

    Construction is done through {!Group}; this interface exposes state
    inspection, application traffic, and the injection points used by
    scripts and the harness. *)

open Gmp_base

type t

(** {1 Construction (used by the sim's [Group] harness and [lib/live])} *)

val create :
  ?joiner:bool ->
  node:Wire.t Gmp_platform.Platform.node ->
  trace:Trace.t ->
  config:Config.t ->
  initial:Pid.t list ->
  unit ->
  t
(** A member of the initial group, or (with [~joiner:true]) a process with
    no view yet that must be admitted via {!start_join}. The member's pid is
    the node's. *)

val start_join : ?retry_interval:float -> t -> contacts:Pid.t list -> unit
(** Ask to be admitted, retrying round-robin over [contacts] (default every
    15 time units) until welcomed - the first contact, or the coordinator
    holding the request, may die before the join commits. *)

(** {1 State inspection} *)

val pid : t -> Pid.t
val self : t -> Pid.t
val view : t -> View.t
val version : t -> int
val seq : t -> Types.seq
val manager : t -> Pid.t
(** The process currently acting as coordinator from this member's point of
    view (the view head initially; the committing initiator after a
    reconfiguration). *)

val faulty_set : t -> Pid.Set.t
val has_quit : t -> bool
val crashed : t -> bool
val operational : t -> bool
val joined : t -> bool
val is_mgr : t -> bool

val node : t -> Wire.t Gmp_platform.Platform.node
(** The platform node the member runs on (its clock, pid and liveness). *)

val now : t -> float
(** The member's clock — virtual time in the sim, wall time live. *)

val pp : t Fmt.t

(** {1 Application layer} *)

val set_app_handler : t -> (src:Pid.t -> Wire.app -> unit) -> unit
val set_on_view_change : t -> (t -> unit) -> unit
val send_app : t -> dst:Pid.t -> Wire.app -> unit
(** Tagged with the sender's view version; the receiver buffers messages
    from future views until it installs them. *)

val broadcast_app : t -> Wire.app -> unit
(** To the current view, minus self and suspects. *)

(** {1 Injection points (scripts, harness)} *)

val inject_suspicion : t -> Pid.t -> unit
(** Fire faultyp(q) as if observed (F1). *)

val inject_crash : t -> unit
(** Really crash the process. *)

(** {1 Explorer support} *)

val fingerprint : t -> int
(** Hash of the member's full protocol state (view, version, sequence,
    suspicion sets, coordinator phase, reconfiguration phase, expectations,
    buffers). Equal states hash equally across executions; used by the
    schedule explorer's state pruning. *)

type checkpoint
(** By-value capture of the member's entire mutable protocol state,
    including its detector's. Mutable phase sub-records are copied at both
    capture and restore, so a checkpoint is never written through and
    restores any number of times. The [app_handler]/[on_view_change]
    callbacks are harness wiring and are not captured. Only meaningful
    together with checkpoints of the node, network and engine the member
    runs on — {!Group.checkpoint} composes all of them. *)

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit
