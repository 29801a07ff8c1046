(** Heartbeat failure detector — the paper's F1 (Observation) source.

    Emits a beat to every current peer each [interval] and fires [suspect]
    once per peer whose last beat is older than [timeout]. Guarantees the
    paper's liveness assumption (a real crash is suspected in finite time);
    may fire spuriously under delay — the protocol must tolerate that.

    Platform-agnostic: time and scheduling come in as closures (normally
    the owning node's {!Gmp_platform.Platform.node} operations), so the
    same detector runs on the simulator's virtual clock and on wall
    clocks. *)

open Gmp_base

type t

val create :
  now:(unit -> float) ->
  set_timer:(delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer) ->
  interval:float ->
  timeout:float ->
  send_beats:(Pid.t list -> unit) ->
  peers:(unit -> Pid.t list) ->
  suspect:(Pid.t -> unit) ->
  unit ->
  t
(** [peers] is read on the first tick or beat after creation and after
    each {!peers_changed}, never otherwise: a received beat costs one table
    lookup and a tick one lookup per peer, and the prune of departed peers
    runs once per peer-set change. [timeout] must exceed [interval]. [send_beats] receives
    the whole (non-empty) peer list once per beat round: callers should
    fan it out through their platform's broadcast, which stamps one causal
    event for the round — n individual sends would each tick and republish
    the sender's vector clock, turning every round into O(n^2) clock
    copies. *)

val peers_changed : t -> unit
(** Signal that [peers ()] may now return a different set. The owner must
    call it on every change (the detector keeps the last list it read), and
    may call it spuriously: re-reading an unchanged set changes nothing. *)

val start : t -> unit
val stop : t -> unit
val is_running : t -> bool

val beat_received : t -> from:Pid.t -> unit
(** Call when a heartbeat message arrives. Beats from processes not in the
    current [peers ()] are dropped — a late beat from a forgotten peer must
    not resurrect its tracking slot. *)

val forget : t -> Pid.t -> unit
(** Drop state about a departed peer (allows a reincarnation to be
    monitored afresh). Peers that depart via a view change without an
    explicit [forget] are pruned on the next tick. *)

val tracked : t -> int
(** Number of peers with a last-heard time (a beat, or enrolment on a
    tick); bounded by the current peer set once a tick has run. O(peers):
    for tests and diagnostics. *)

val last_heard : t -> (Pid.t * float) list
(** The last-heard table, sorted by pid: the [tracked] peers and the time
    of each one's last beat or enrolment. For tests and diagnostics. *)

type checkpoint
(** Capture of the detector's mutable state (last-heard table with the
    peer set it was last synced to, running flag, pending-tick handle,
    fired-suspicion set). Only meaningful together with
    a checkpoint of the platform that owns the detector's timers — the
    simulator's engine restore resurrects the pending tick's handle in
    place. Valid across any number of restores. *)

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit
