(** Process runtime over the simulated network.

    A node is one {!Gmp_platform.Shell} process whose world is the
    simulator: virtual time and timers from the engine, one stamped
    envelope per destination on the network. Everything a node does goes
    through its {!Gmp_platform.Platform.node} record. *)

open Gmp_base

type 'm wrapped
(** Network-level envelope (payload + sender vector clock). *)

type 'm t

type 'm node = 'm Gmp_platform.Platform.node
(** A node is its platform record: timers are engine events tagged with
    the node's network slot; [halt] crashes the node on the network
    (in-flight messages to it vanish); [disconnect_from] sets the
    network's S1 flag; [log] is a no-op (the sim's trace is the log). *)

val create : ?delay:Gmp_net.Delay.t -> seed:int -> unit -> 'm t

val engine : 'm t -> Gmp_sim.Engine.t
val network : 'm t -> 'm wrapped Gmp_net.Network.t
val stats : 'm t -> Gmp_net.Stats.t

val spawn : 'm t -> Pid.t -> 'm node
(** Create a node. Raises [Invalid_argument] if the pid already exists. *)

val platform : 'm node -> 'm Gmp_platform.Platform.node
(** The identity; kept for callers written against an abstract [node]. *)

val run : ?max_steps:int -> ?until:float -> 'm t -> unit

type 'm checkpoint
(** Every node's shell capture: liveness flag, event counter and vector
    clock. Restore mutates the same shells in place (in-flight timer and
    delivery closures hold them) and drops nodes spawned after the
    capture. The engine and network must be checkpointed separately —
    {!Group.checkpoint} composes all three. *)

val checkpoint : 'm t -> 'm checkpoint
val restore : 'm t -> 'm checkpoint -> unit
