(* The execution-platform seam between the protocol core and the world.

   The paper's algorithms assume only an asynchronous message substrate
   (send / indivisible broadcast), local timers for the F1 failure-detection
   oracle, the S1 receiver-side channel disconnect and a local clock. This
   record is exactly that surface: lib/core compiles against it and nothing
   else, so the same protocol byte-for-byte runs on the deterministic
   simulator (Gmp_runtime.Runtime) and on real UDP or TCP sockets with
   wall-clock timers (Gmp_live.Node).

   A node is a record of closures rather than a functor so that one
   executable can host nodes of both worlds (the orchestrator does), and so
   call sites need no functor plumbing. Both worlds build it with the one
   process shell (Shell), which keeps the vector clock: tick on send /
   broadcast / local_event, merge+tick on delivery - the protocol layers
   read it back through [clock] to stamp their traces with causal time. *)

open Gmp_base
open Gmp_causality

type timer = { cancel : unit -> unit }

type 'm node = {
  pid : Pid.t;
  alive : unit -> bool;  (* false once crashed / halted *)
  now : unit -> float;
      (* simulator: virtual time; live: seconds of wall clock (monotonic
         within a process, comparable across loopback processes) *)
  clock : unit -> Vector_clock.t;
  local_event : unit -> int * Vector_clock.t;
      (* record a local step; returns (history index, vector clock) *)
  send : dst:Pid.t -> category:Stats.category -> 'm -> unit;
      (* no-op once dead: crashed processes influence nobody *)
  broadcast : dsts:Pid.t list -> category:Stats.category -> 'm -> unit;
      (* the paper's Bcast: indivisible (one clock tick, self excluded)
         but not failure-atomic *)
  disconnect_from : from:Pid.t -> unit;
      (* system property S1: never receive from [from] again *)
  halt : unit -> unit;
      (* stop receiving, sending and firing timers, forever (crash /
         protocol-mandated quit) *)
  set_receiver : (src:Pid.t -> 'm -> unit) -> unit;
  set_timer : delay:float -> (unit -> unit) -> timer;
      (* fires once, only if the node is still alive *)
  every : interval:float -> (unit -> unit) -> unit;
      (* periodic timer; stops when the node dies *)
  log : string -> unit;  (* local diagnostic log (not part of the trace) *)
}
