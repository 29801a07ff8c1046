(** Simulation harness: a process group on the simulated network.

    Builds the members, schedules fault/join/partition injections, runs the
    engine and exposes the trace, statistics and final states that the
    checkers and benches consume. *)

open Gmp_base
open Gmp_core

type t

val create :
  ?config:Config.t ->
  ?delay:Gmp_net.Delay.t ->
  ?seed:int ->
  n:int ->
  unit ->
  t
(** A group of [n] processes [p0 .. p(n-1)], [p0] most senior. *)

val runtime : t -> Wire.t Runtime.t
val engine : t -> Gmp_sim.Engine.t

(** The underlying network (for partitions, channel decoding and
    fingerprinting by the explorer). *)
val network : t -> Wire.t Runtime.wrapped Gmp_net.Network.t
val trace : t -> Trace.t
val stats : t -> Gmp_net.Stats.t
val initial : t -> Pid.t list
val pids : t -> Pid.t list
val member : t -> Pid.t -> Member.t
val members : t -> Member.t list
val nth : t -> int -> Member.t

(** {1 Scheduled injections} *)

val at : t -> float -> (unit -> unit) -> unit
val crash_at : t -> float -> Pid.t -> unit
val suspect_at : t -> float -> observer:Pid.t -> target:Pid.t -> unit

val join_at : ?contacts:Pid.t list -> t -> float -> Pid.t -> contact:Pid.t -> unit
(** Spawn a fresh process at the given time and have it request admission
    through [contact] (retrying through [contacts], default the initial
    group). *)

val partition_at : t -> float -> Pid.t list list -> unit
val heal_at : t -> float -> unit

(** {1 Running and inspecting} *)

val run : ?max_steps:int -> ?until:float -> t -> unit
(** Default horizon 500 virtual time units. *)

val operational_members : t -> Member.t list
(** Alive, not quit, and holding a view. *)

val surviving_views : t -> (Pid.t * int * Pid.t list) list

val agreed_view : t -> (int * Pid.t list) option
(** The final system view, if all operational members agree on one. *)

val protocol_messages : t -> int
(** Messages sent in the protocol categories (§7.2 accounting). *)

val registry : t -> Gmp_obs.Obs.registry
(** The group's metrics registry: the one {!stats} records its [msg.*]
    counters into. Harness extensions (e.g.
    {!Gmp_net.Arq.create}[ ~registry]) hang more off it. *)

val metrics : t -> Gmp_obs.Obs.Snapshot.t
(** Registry snapshot merged with [latency.*] histograms derived from the
    current trace ({!Gmp_core.Latency.observe}) and the engine totals
    [sim.events_fired] and [sim.peak_heap_entries]. Idempotent — safe to call
    repeatedly; deterministic for a given seed and schedule. *)

val fingerprint : t -> int
(** Hash of all members' protocol state plus the network's adversarial
    state, for the explorer's state pruning. *)

type checkpoint
(** Whole-world capture: engine (event heap, handle flags, virtual clock),
    network (channels, crash/disconnect state, parked queues, counters,
    RNG), runtime (node liveness/clocks/event counters, harness RNG), trace
    (truncate-to-mark) and every member's protocol state. Cost is O(world):
    flat array blits plus O(1) copy-on-write clock publishes. Restoring
    rewinds all of it in place, dropping anything (nodes, members, channels,
    events, trace suffix) created after the capture; the same checkpoint
    restores any number of times. This is the explorer's snapshot layer. *)

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit

val check : ?liveness:bool -> t -> Checker.violation list
(** Full checker verdict for this run ({!Checker.check_run} fed from the
    harness's final states); [~liveness:false] restricts to safety. *)

val to_json : ?include_trace:bool -> t -> Json.t
(** Full run dump: members, agreed view, statistics, checker verdicts and
    (optionally) the complete trace. *)

val pp_summary : t Fmt.t
