(** Bounded, deterministic schedule exploration (stateless model checking).

    Where {!Gmp_workload.Fuzz} samples random adversarial schedules, this
    module {e enumerates} delivery/timer/crash interleavings systematically:
    every ready simulator event inside the engine's ready window (see
    {!Gmp_sim.Engine.ready}) is a choice point, as is every adversarial
    injection the {!adversary} budget still allows. Interleavings are
    explored by iterative-deepening DFS over the first [depth] branching
    points of each execution (the remainder of the run follows the default
    deterministic order), with two reductions:

    - {b sleep-set-style commutation}: immediately after firing an event of
      process [q], a ready event of process [p < q] that was already ready
      before is skipped — the [p]-first order of that commuting pair is
      explored on a sibling branch, so only the sorted representative of
      each same-window reordering class survives;
    - {b state-hash pruning}: at every branching point the full protocol +
      network + pending-event state is hashed; a state seen before with at
      least as much remaining depth is not re-explored.

    [Checker.check_safety] runs after every step that grew the trace, so a
    violation stops the execution at the first step that exhibits it. The
    recorded choice list replays deterministically ({!replay}) and is
    shrunk with {!Gmp_workload.Fuzz.delta_debug} to a minimal
    counterexample. *)

type adversary = {
  crashes : int;  (** max crash injections per execution *)
  suspicions : int;  (** max spurious-suspicion injections per execution *)
  isolations : int;  (** max single-process partitions per execution *)
  heal : bool;  (** may heal an active partition *)
}

val no_adversary : adversary

type model = {
  n : int;  (** initial group size (processes [p0 .. p(n-1)]) *)
  config : Gmp_core.Config.t;
  seed : int;  (** RNG seed for the rebuilt group (delays) *)
  delay : Gmp_net.Delay.t;
  horizon : float;  (** stop each execution at this virtual time *)
  slack : float;  (** engine ready-window width; keep below the minimum
                      message delay so windows never swallow a causal
                      successor *)
  adversary : adversary;
}

val assurance : ?n:int -> ?seed:int -> unit -> model
(** The full algorithm ([Config.default]) under constant delay with a
    one-crash, two-suspicion adversary: exploration must find {e no}
    violation. *)

val sensitivity : ?n:int -> ?seed:int -> unit -> model
(** The weakened algorithm ([Config.basic], no majority requirement on
    updates) with a one-isolation adversary: exploration must rediscover
    the known partition divergence (GMP-2/3). *)

type injection =
  | Crash of int  (** crash [p_i] *)
  | Suspect of int * int  (** [Suspect (o, q)]: [p_o] spuriously suspects [p_q] *)
  | Isolate of int  (** partition [p_i] alone on an island *)
  | Heal

type choice =
  | Fire of int  (** fire the [i]-th candidate of the (reduced) ready window *)
  | Inject of injection

val pp_choice : choice Fmt.t

type stats = {
  executions : int;  (** executions started (the explorer's unit of cost) *)
  distinct : int;  (** distinct completed interleavings (deduplicated by
                       choice list + terminal state hash, across
                       iterative-deepening rounds) *)
  frames : int;  (** branching points expanded in total *)
  state_pruned : int;  (** executions cut short by the state-hash table *)
  sleep_pruned : int;  (** fire candidates skipped by the commutation rule *)
  max_depth : int;  (** deepest iterative-deepening round reached *)
}

val pp_stats : stats Fmt.t

type counterexample = {
  cx_choices : choice list;  (** minimal (delta-debugged) choice prefix *)
  cx_injections : int;  (** adversarial injections among [cx_choices] *)
  cx_violations : Gmp_core.Checker.violation list;
}

type outcome = {
  stats : stats;
  counterexample : counterexample option;
}

val pp_outcome : outcome Fmt.t

val explore :
  ?progress:(stats -> unit) ->
  ?snapshots:bool ->
  model ->
  depth:int ->
  budget:int ->
  outcome
(** Enumerate interleavings of [model] with at most [depth] recorded
    branching choices per execution and at most [budget] executions in
    total, deepening iteratively (4, 8, ... up to [depth]). One
    commit-at-exhaustion fingerprint table prunes across the whole search.
    Stops at the first safety violation; the returned counterexample is
    already shrunk and replay-verified. Fully deterministic: same model,
    depth and budget give the same outcome. [progress] is invoked every few
    hundred executions. Raises [Invalid_argument] for [depth < 1] or
    [budget < 1].

    [snapshots] (default [true]) selects checkpoint/restore backtracking:
    each DFS round runs in one world, captures a {!Gmp_runtime.Group}
    checkpoint at every decision frame, and enters sibling branches by
    restoring the frame where the prefix increments instead of re-executing
    the shared prefix from the root — O(world) per backtrack instead of
    O(prefix events). [~snapshots:false] switches to the original
    rebuild-and-replay engine, the reference oracle the test suite compares
    against: the two produce byte-identical outcomes (every statistic, the
    distinct-interleaving count and the counterexample). *)

val replay : model -> choice list -> Gmp_core.Checker.violation list
(** Re-execute a recorded choice list on a freshly built group (prefix
    replay; out-of-range or no-longer-legal choices degrade to the default
    candidate) and return the safety verdict. *)

val describe : model -> choice list -> string list
(** Replay a choice list and narrate every applied choice (deliveries with
    endpoints, timers with owners, injections) — the human-readable form of
    a counterexample. *)
