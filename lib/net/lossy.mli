(** Raw datagram layer: lossy, duplicating and (via the {!Netem} model)
    reordering; FIFO per channel by default (a physical link), optionally
    fully reordering.

    The hostile medium underneath the paper's channel assumption; {!Arq}
    builds the assumed reliable FIFO channel on top of it. The 1-bit
    protocol is sound over lossy-duplicating FIFO links and provably not
    over reordering ones — pass [~fifo:false] to see it break.

    Per-datagram fates come from {!Netem.sample} — the same decision
    function the live runtime applies at its socket seam. *)

open Gmp_base

type 'm t

val create :
  ?loss:float ->
  ?duplicate:float ->
  ?reorder:float ->
  ?fifo:bool ->
  engine:Gmp_sim.Engine.t ->
  rng:Gmp_sim.Rng.t ->
  delay:Delay.t ->
  unit ->
  'm t
(** [loss] in [\[0,1)]: probability a datagram vanishes; [duplicate] in
    [\[0,1\]]: probability of a second copy; [reorder] in [\[0,1\]]:
    probability a delivered copy is held past later traffic (bypassing the
    FIFO floor even on a [fifo] link); [fifo] (default true): per-channel
    in-order delivery. *)

val of_model :
  ?fifo:bool -> engine:Gmp_sim.Engine.t -> rng:Gmp_sim.Rng.t -> Netem.t -> 'm t
(** The same link driven by a prebuilt fault model — what a live
    experiment tunes and the simulator replays. *)

val set_handler : 'm t -> (dst:Pid.t -> src:Pid.t -> 'm -> unit) -> unit
val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit

val model : 'm t -> Netem.t
val datagrams_sent : 'm t -> int
val datagrams_lost : 'm t -> int
val datagrams_reordered : 'm t -> int
