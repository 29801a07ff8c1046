(** The process shell: one implementation of {!Platform.node} for every
    world.

    The paper's process is a sequence of events — sends, receives and
    local steps — each stamped with causal time. The shell is that
    process's bookkeeping, written once: it owns the pid, the liveness
    flag, the event counter, the copy-on-write vector clock and the
    receiver, and applies the clock rules (tick on send, broadcast and
    local event; merge+tick on delivery). Everything else comes from its
    {!world}: time, timers, a channel, and the world's half of [halt] and
    of the S1 disconnect. In the Lynch–Sastry reading it is one I/O
    automaton whose inputs and outputs are discrete events supplied by
    that world.

    The simulator's world is [Gmp_sim.Engine] plus [Gmp_net.Network]
    ([Gmp_runtime.Runtime]); the live world is the timer wheel plus the
    go-back-N ARQ, [Codec] and a UDP or TCP transport ([Gmp_live.Node]). *)

open Gmp_base
open Gmp_causality

type ('m, 'h) world = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> 'h;
      (** One-shot callback after [delay]; the shell adds the alive guard. *)
  cancel : 'h -> unit;
  transmit :
    dst:Pid.t -> category:Stats.category -> Vector_clock.t -> 'm -> unit;
      (** Put one stamped message on the channel to [dst]. Called only
          while the process is alive, never with [dst] = self. *)
  halt : unit -> unit;
      (** The world's side of a crash, called once, after [alive] flips. *)
  disconnect_from : from:Pid.t -> unit;
      (** The world's side of S1: never hand in a delivery from [from]. *)
  log : string -> unit;
}

type 'm t

val create : Pid.t -> 'm t
(** A live process with a zero clock, no history and a receiver that
    ignores everything. *)

val pid : 'm t -> Pid.t
val alive : 'm t -> bool
val clock : 'm t -> Vector_clock.t

val deliver : 'm t -> src:Pid.t -> Vector_clock.t -> 'm -> unit
(** A message the world's channel hands in: dropped if the process is
    dead, else merge+tick the clock, count the event and call the
    receiver. *)

val node : 'm t -> ('m, 'h) world -> 'm Platform.node
(** The process seen through the platform seam, over [world]. The record
    holds no state of its own: every record built over one shell acts on
    the same process. *)

type 'm checkpoint
(** The shell's mutable state — liveness, event counter and vector clock
    (an O(1) copy-on-write publish) — together with the shell it came
    from. *)

val checkpoint : 'm t -> 'm checkpoint

val restore : 'm checkpoint -> unit
(** Put the captured state back into the captured shell. A checkpoint
    stays valid across any number of restores. *)

val captured : 'm checkpoint -> 'm t
(** The shell a checkpoint restores into. *)
