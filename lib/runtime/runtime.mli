(** Process runtime over the simulated network.

    A {!node} is one process: it can send, broadcast, set timers, record
    local events and crash. The runtime maintains vector clocks transparently
    (tick on send and local event, merge+tick on receive), so layers above
    can stamp their traces with causal timestamps. *)

open Gmp_base
open Gmp_causality

type 'm wrapped
(** Network-level envelope (payload + sender vector clock). *)

type 'm t
type 'm node

val create : ?delay:Gmp_net.Delay.t -> seed:int -> unit -> 'm t

val engine : 'm t -> Gmp_sim.Engine.t
val network : 'm t -> 'm wrapped Gmp_net.Network.t
val stats : 'm t -> Gmp_net.Stats.t
val rng : 'm t -> Gmp_sim.Rng.t
val now : 'm t -> float

val spawn : 'm t -> Pid.t -> 'm node
(** Create a node. Raises [Invalid_argument] if the pid already exists. *)

val find : 'm t -> Pid.t -> 'm node option
val nodes : 'm t -> 'm node list

val set_receiver : 'm node -> (src:Pid.t -> 'm -> unit) -> unit

val pid : 'm node -> Pid.t

val alive : 'm node -> bool
val clock : 'm node -> Vector_clock.t
val node_now : 'm node -> float

val local_event : 'm node -> int * Vector_clock.t
(** Record a local step; returns the new [(history index, vector clock)]. *)

val send :
  ?extra_delay:float -> 'm node -> dst:Pid.t -> category:Gmp_net.Stats.category -> 'm -> unit
(** No-op if the node is dead (crashed processes influence nobody). *)

val broadcast :
  ?extra_delay:float ->
  'm node ->
  dsts:Pid.t list ->
  category:Gmp_net.Stats.category ->
  'm ->
  unit
(** The paper's [Bcast]: indivisible (single instant, one vc tick, self
    excluded) but not failure-atomic. *)

val crash : 'm node -> unit
(** The node stops receiving, sending and firing timers; in-flight messages
    to it vanish. *)

val disconnect_from : 'm node -> from:Pid.t -> unit
(** System property S1: stop receiving from [from], forever. *)

type timer

val set_timer : 'm node -> delay:float -> (unit -> unit) -> timer
(** Fires only if the node is still alive. *)

val cancel_timer : 'm node -> timer -> unit

val every : 'm node -> interval:float -> (unit -> unit) -> unit
(** Periodic timer; stops when the node dies. *)

val run : ?max_steps:int -> ?until:float -> 'm t -> unit

type 'm checkpoint
(** Capture of the runtime-owned mutable state: the harness RNG stream plus
    every node's liveness flag, event counter and vector clock (an O(1)
    copy-on-write publish). Restore mutates the same node records in place
    (in-flight timer and dispatch closures hold them) and drops nodes
    spawned after the capture. The engine and network must be checkpointed
    separately — {!Group.checkpoint} composes all three. *)

val checkpoint : 'm t -> 'm checkpoint
val restore : 'm t -> 'm checkpoint -> unit

val platform : 'm node -> 'm Gmp_platform.Platform.node
(** The node's operations as the world-agnostic platform record. Protocol
    layers built against {!Gmp_platform.Platform.node} run on the simulator
    through this and on real sockets through [lib/live], byte-identically.
    [halt] is {!crash}; [log] is a no-op (the sim's trace is the log). *)
