(** Durable per-node event logs (JSONL) and their reassembly into one
    global trace the {!Gmp_core.Checker} can judge.

    The write side flushes every event as its own line the moment it is
    recorded, so a log survives [SIGKILL] complete up to (at worst) one
    torn final line; the read side drops such a line and treats any other
    parse failure as an error. *)

open Gmp_core

type writer

val attach : Trace.t -> path:string -> writer
(** Install an observer (via {!Trace.set_on_record}) writing each event of
    [trace] to [path] as one flushed JSON line. *)

val write_arq : writer -> pid:Gmp_base.Pid.t -> (string * int) list -> unit
(** Append the node's ARQ / fault-injection counters (from
    [Node.counters]) as one summary line. Written at clean shutdown;
    {!read_file} skips it, {!read_arq} extracts it. *)

val write_transport :
  writer -> pid:Gmp_base.Pid.t -> kind:string -> (string * int) list -> unit
(** Append the node's transport counters (from [Node.transport_counters])
    as one summary line tagged with the transport kind. Written at clean
    shutdown; {!read_file} skips it, {!read_transport} extracts it. *)

val write_metrics :
  writer ->
  pid:Gmp_base.Pid.t ->
  at:float ->
  Gmp_obs.Obs.Snapshot.t ->
  unit
(** Append a full registry snapshot as one summary line stamped with the
    node's clock. Written periodically and at clean shutdown; {!read_file}
    skips it, {!read_metrics} extracts the last (most complete) one. *)

val close : writer -> unit

val event_of_line : string -> (Trace.event, string) result
(** Parse one log line (inverse of [Export.json_of_event]). *)

val read_file : string -> (Trace.event list, string) result
(** All events of one node's log, in recorded order. Summary lines — any
    parsed object without an ["event"] member, including kinds this
    reader has never heard of — are skipped, so logs written by newer
    nodes still reassemble. *)

val read_arq : string -> (string * int) list option
(** The ARQ counters summary of one node's log, if present (a SIGKILLed
    node writes none), under the keys the writer used — the registry's
    [arq.*] / [netem.*] names for every current node. *)

val read_transport : string -> (string * (string * int) list) option
(** The transport summary of one node's log, if present:
    [(kind, counters)], keys as written ([transport.*] for every current
    node). *)

val read_metrics : string -> Gmp_obs.Obs.Snapshot.t option
(** The last metrics snapshot line of one node's log, if any parses (a
    SIGKILLed node keeps its last periodic line, if an interval was on). *)

val reassemble : Trace.event list list -> Trace.t
(** Merge per-node event lists into one trace ordered by
    (time, owner, local index). With all nodes stamping events on one
    monotonicized absolute clock this is a legal linearization: each
    owner's events keep their local order, and only concurrent cross-node
    events can be reordered by clock skew — which the checked properties
    are insensitive to. *)

val read_and_reassemble : string list -> (Trace.t, string) result
