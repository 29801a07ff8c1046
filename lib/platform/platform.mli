(** The execution-platform seam between the protocol core and the world.

    The protocol layers ({!Gmp_core.Member}, the detectors, the vsync layer)
    see one process of an asynchronous system exclusively through this
    record: send and indivisible broadcast, one-shot and periodic timers, a
    local clock, the S1 incoming-channel disconnect, and vector-clock
    bookkeeping. One implementation builds it, {!Shell.node}, over either
    of two worlds:

    - [Gmp_runtime.Runtime.spawn]: the deterministic discrete-event
      simulator (virtual time, simulated network);
    - [Gmp_live.Node.platform]: real OS processes exchanging frames over
      UDP datagrams or TCP streams, with wall-clock timers.

    The shell maintains the vector clock (tick on send, broadcast and
    local event; merge+tick on delivery) so protocol layers can stamp their
    trace events with causal timestamps. *)

open Gmp_base
open Gmp_causality

type timer = { cancel : unit -> unit }
(** Cancelling an already-fired or already-cancelled timer is a no-op. *)

type 'm node = {
  pid : Pid.t;
  alive : unit -> bool;
  now : unit -> float;
  clock : unit -> Vector_clock.t;
  local_event : unit -> int * Vector_clock.t;
  send : dst:Pid.t -> category:Stats.category -> 'm -> unit;
  broadcast : dsts:Pid.t list -> category:Stats.category -> 'm -> unit;
  disconnect_from : from:Pid.t -> unit;
  halt : unit -> unit;
  set_receiver : (src:Pid.t -> 'm -> unit) -> unit;
  set_timer : delay:float -> (unit -> unit) -> timer;
  every : interval:float -> (unit -> unit) -> unit;
  log : string -> unit;
}
