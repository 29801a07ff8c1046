(** Discrete-event simulation engine.

    Virtual time advances only when events fire; the simulated system is
    otherwise infinitely fast. This realizes the paper's asynchronous model:
    "time" exists only as an approximate tool for triggering detections, never
    for reasoning about state.

    Determinism contract: by default, events at equal timestamps fire in
    insertion order, so a run is a pure function of the schedule calls. A
    {!set_picker} overrides the tie-break within a {e ready window}: every
    live event whose fire time is within [slack] of the earliest pending one
    is offered as an interchangeable choice, and events fired from a window
    fire at the window's base time — so reorderings within a window produce
    time-identical downstream schedules. The schedule explorer builds on
    this. *)

type t

type handle
(** A scheduled event, cancellable. *)

exception Stop
(** Raise from inside an event action to stop [run] immediately. *)

val create : unit -> t

val now : t -> float
(** Current virtual time. *)

val fired_events : t -> int
(** Number of events fired so far (cancelled events excluded). *)

val pending_events : t -> int
(** Number of scheduled, not-yet-fired, not-cancelled events. *)

val queue_length : t -> int
(** Entries physically in the queue, live plus not-yet-collected tombstones.
    Compaction keeps this below twice {!pending_events} (once past a small
    constant threshold). *)

val peak_queue_length : t -> int
(** High-water mark of {!queue_length}: the peak heap footprint of the run. *)

val schedule : ?proc:int -> ?chan:int -> t -> delay:float -> (unit -> unit) -> handle
(** Schedule an action [delay] time units from now. [proc] tags the process
    slot the event acts on and [chan] the FIFO channel it belongs to (both
    default to [-1] = untagged); tags only matter to {!ready} and never
    influence default execution. *)

val schedule_at : ?proc:int -> ?chan:int -> t -> time:float -> (unit -> unit) -> handle
(** Schedule at an absolute time; raises [Invalid_argument] if in the past. *)

val cancel : t -> handle -> unit
(** Cancel a scheduled event (idempotent). *)

val is_cancelled : handle -> bool
(** True once the event was cancelled {e or} consumed by {!fire}. *)

val fire_time : handle -> float

val proc_of : handle -> int
(** Process-slot tag given at schedule time, [-1] if untagged. *)

val chan_of : handle -> int
(** FIFO-channel tag given at schedule time, [-1] if untagged. *)

val set_slack : t -> float -> unit
(** Width of the ready window offered by {!ready}. Default [0.0]: only
    events tied with the earliest timestamp are interchangeable. *)

val set_picker : ?slack:float -> t -> (handle list -> handle) -> unit
(** Install a picker consulted by {!step} whenever the ready window holds
    more than one candidate. The picker must return one of the offered
    handles (checked). *)

val ready : t -> handle list
(** The current ready window: live events within [slack] of the earliest
    pending one, sorted by (time, seq), filtered to per-channel fronts (for
    events tagged with a channel, only the earliest per channel appears —
    FIFO order within a channel is not a degree of freedom). Empty iff no
    live events remain. *)

val fire : t -> handle -> unit
(** Consume and run one ready event, advancing [now] to the window base (so
    same-window reorderings are time-identical). Raises [Invalid_argument]
    if the handle was already fired or cancelled. *)

val fold_live : t -> init:'a -> f:('a -> handle -> 'a) -> 'a
(** Fold over every live (scheduled, unfired, uncancelled) event, in
    unspecified order. Used to fingerprint pending-event state. *)

(** {2 Checkpoint / restore}

    A checkpoint captures the event queue (handles by reference plus each
    handle's consumed/cancelled flag), virtual time, the fired/live counters
    and the ready-window state — O(queue length) array blits. Restoring puts
    the flags back {e in place} on the same handle records, so references
    held outside the engine (e.g. a pending-timer handle) remain valid and
    cancellable; handles scheduled after the capture are dropped. The picker
    and [max_steps] harness settings are not captured. A checkpoint stays
    valid across any number of restores. *)

type checkpoint

val checkpoint : t -> checkpoint
val restore : t -> checkpoint -> unit

val step : t -> bool
(** Fire the next event; [false] when the queue is empty. With a picker
    installed, the next event is chosen from {!ready} via the picker. *)

val run : ?max_steps:int -> ?until:float -> t -> unit
(** Fire events until quiescence, the [until] horizon, or [max_steps]
    (default 10 million, at which point it fails — a livelock guard). When the
    horizon stops the run, [now] is advanced to the horizon. *)

val run_until : t -> float -> unit
(** [run_until t horizon] is [run ~until:horizon t]. *)
