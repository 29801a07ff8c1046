(** Protocol latency metrics, derived from a run trace.

    The paper's failure-detection layer is judged by how fast an injected
    crash turns into agreed membership change. These derivations read that
    off the trace itself — event [time] is virtual under the simulator and
    wall-clock in the live runtime, so one definition measures both worlds
    identically — and record into registry histograms:

    - [latency.crash_to_first_suspicion]: per crash, from the crash
      instant to the earliest [Faulty] event against it at any survivor.
    - [latency.crash_to_view_installed]: per (crash, member) pair, for
      every member whose installed view contained the victim at the crash
      instant: time until that member first installs a view excluding it.
      The histogram's upper quantiles therefore track the slowest member,
      i.e. cluster-wide convergence.
    - [latency.join_to_installed]: per admitted joiner, from the earliest
      [Operating] event announcing it to the joiner's own first
      [Installed].

    SIGKILLed live nodes log no [Crashed] event, so the orchestrator — who
    chose the kill times — supplies them via [?crashes]; in-trace
    [Crashed] events take precedence for pids carrying both. *)

open Gmp_base

val crash_to_first_suspicion : string
val crash_to_view_installed : string
val join_to_installed : string

val view_installed : Trace.t -> (Pid.t * float) list
(** The [latency.crash_to_view_installed] samples of the trace's own
    crashes as [(victim, latency)] pairs, in the order {!observe} records
    them: crashes by pid, members by pid. A crash whose victim no member's view held at the crash
    instant (it was already excluded) contributes none. *)

val observe :
  ?crashes:(Pid.t * float) list -> Gmp_obs.Obs.registry -> Trace.t -> unit
(** Derive all three metric families from [trace] and record them into
    the registry (histograms are created on demand with
    {!Gmp_obs.Obs.latency_buckets}). Deterministic: observation order is
    fixed by pid and trace order, so same-seed simulator runs produce
    byte-identical snapshots. *)
