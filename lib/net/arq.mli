(** The paper's footnoted channel implementation: reliable FIFO over a
    lossy medium via "a (1-bit) sequence number on each message and an
    acknowledgement protocol".

    One sans-IO go-back-N state machine ({!Machine}) implements it for the
    whole repository, in two instances: the alternating bit (window 1,
    1-bit sequence numbers, fixed rto), which {!create} runs over the
    simulator's {!Lossy} medium; and go-back-N proper (unbounded window,
    integer sequence numbers, exponential backoff), which the live node
    runs over its transport.

    Messages handed to {!send} reach the upper layer exactly once, in
    order, despite loss and duplication underneath — provided the medium
    is FIFO per channel (a physical link; the default). Over arbitrarily
    reordering links the 1-bit protocol is provably unsound (a stale frame
    or ack can cross two bit flips); create with [~fifo:false] to
    demonstrate it. *)

open Gmp_base

(** The ARQ state machine, per ordered process pair. It does no I/O and
    reads no clock: inputs are events stamped with [now]; outputs are
    data frames to transmit, the retransmit deadline, and delivery
    verdicts. A driver owns the medium, the timer and the clock. *)
module Machine : sig
  type config
  (** An instance, bound to the registry its [arq.*] metrics live in:
      counters [arq.data_frames_sent] (first transmissions),
      [arq.retransmits] (frames re-sent), [arq.retransmit_rounds]
      (retransmit-timer fires), [arq.dups_suppressed] (data behind the
      receive window), [arq.out_of_window_drops] (data ahead of it);
      histograms [arq.rtt] (ack round-trips of never-retransmitted frames
      only — Karn's rule) and [arq.backoff_rounds] (retransmit rounds per
      recovered quiet spell, {!Gmp_obs.Obs.round_buckets}). Instances
      sharing a registry share these metrics. *)

  val alternating_bit : rto:float -> Gmp_obs.Obs.registry -> config
  (** Window 1, sequence numbers modulo 2, retransmit every [rto]. *)

  val go_back_n : rto:float -> rto_max:float -> Gmp_obs.Obs.registry -> config
  (** Unbounded window and integer sequence numbers; the timeout doubles
      per silent retransmit round up to [rto_max] and resets to [rto] on
      ack progress. *)

  type 'p entry = private {
    seq : int;
    payload : 'p;
    sent_at : float;
    mutable clean : bool;
  }
  (** An unacked frame. *)

  type timer =
    | Keep  (** leave the retransmit timer as it is *)
    | Stop  (** cancel it *)
    | Arm of float  (** cancel it and re-arm at this absolute deadline *)

  type 'p output = { frames : 'p entry list; timer : timer }

  type ('p, 'h) sender
  (** The sending half of one channel, carrying payloads ['p]; it keeps
      the driver's timer handle ['h] without looking inside it. *)

  val sender : config -> ('p, 'h) sender
  val send : ('p, 'h) sender -> now:float -> 'p -> 'p output
  val ack : ('p, 'h) sender -> now:float -> next:int -> 'p output
  (** A cumulative ack: the receiver expects [next]. Stale acks, and acks
      for frames never sent, are ignored. *)

  val timeout : ('p, 'h) sender -> now:float -> 'p output
  (** The armed deadline passed: resend the whole window and back off.
      A deadline is armed only while frames are unacked — every output
      that empties the window stops the timer. *)

  val teardown : ('p, 'h) sender -> 'p output
  (** Drop the unacked window and the backlog, and stop the timer.
      Sequence state is kept, so late acks stay stale. *)

  val idle : ('p, 'h) sender -> bool
  (** Nothing unacked or backlogged. *)

  val apply :
    ('p, 'h) sender ->
    'p output ->
    cancel:('h -> unit) ->
    transmit:('p entry -> unit) ->
    schedule:(float -> 'h) ->
    unit
  (** Carry out an output in the one order every driver follows: [cancel]
      the pending timer (unless [Keep]), [transmit] the frames in order,
      then [schedule] the [Arm] deadline and keep the returned handle. The
      deadline's firing is the {!timeout} input. *)

  type receiver

  val receiver : config -> receiver

  val receive : receiver -> seq:int -> bool
  (** A data frame arrived: [true] iff it is the next expected one, to be
      delivered. Either way, ack it with {!ack_next}. *)

  val ack_next : receiver -> int
end

type 'm t

val create :
  ?loss:float ->
  ?duplicate:float ->
  ?rto:float ->
  ?fifo:bool ->
  ?registry:Gmp_obs.Obs.registry ->
  engine:Gmp_sim.Engine.t ->
  rng:Gmp_sim.Rng.t ->
  delay:Delay.t ->
  unit ->
  'm t
(** The alternating bit over a {!Lossy} medium. Defaults: 20% loss, 5%
    duplication, retransmit every 5 time units.

    With [registry], the {!Machine.config} metrics (virtual-clock
    [arq.rtt] included) land there, next to the medium's
    [arq.datagrams_sent] and [arq.datagrams_lost] snapshot views. *)

val set_handler : 'm t -> (dst:Pid.t -> src:Pid.t -> 'm -> unit) -> unit
(** Upper-layer delivery: exactly once, per-channel FIFO. *)

val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit

val teardown : 'm t -> src:Pid.t -> dst:Pid.t -> unit
(** Tear down the sender side of the [src -> dst] channel: cancel the
    retransmit timer and drop the outstanding datagram and backlog. Call
    when [dst] is deemed crashed or faulty — otherwise the stop-and-wait
    loop retransmits forever toward a peer that will never ack, and the
    event queue never drains. Idempotent; never creates channel state. *)

val teardown_to : 'm t -> Pid.t -> unit
(** {!teardown} every existing sender channel whose destination is the
    given pid. *)

val retransmissions : 'm t -> int
val datagrams_sent : 'm t -> int
val datagrams_lost : 'm t -> int
