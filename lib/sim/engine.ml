(* Discrete-event simulation engine. Time is virtual: [now] jumps to the
   timestamp of each fired event. Handles are cancellable so that timers can
   be reset cheaply: cancelled events become tombstones in the queue and are
   skipped when popped. When tombstones outnumber live entries the queue is
   compacted in place, so long runs with heavy timer churn keep the heap
   proportional to the number of live timers.

   Determinism contract: without a picker, ties at equal timestamps break by
   insertion sequence, so a run is a pure function of the schedule calls. A
   picker (see [set_picker]) overrides the tie-break *within a ready window*:
   all live events whose fire time falls within [slack] of the earliest one
   are offered as interchangeable choices, and every event fired out of a
   window fires at the window's base time. Reordering events inside a window
   therefore produces time-identical downstream schedules, which is what lets
   the explorer treat such reorderings as commuting. *)

(* Handle and action live in one record so a schedule is a single allocation
   and the queue's payload column holds the handle directly: [step] pops the
   handle, reads [fire_at] from it, and fires — no per-event wrapper.

   [proc]/[chan] are scheduling tags for the explorer: the process slot an
   event acts on (-1 = global or unknown) and the FIFO channel it belongs to
   (-1 = not a channel delivery). They never influence default execution. *)
type handle = {
  mutable cancelled : bool;
  fire_at : float;
  proc : int;
  chan : int;
  action : unit -> unit;
}

type t = {
  queue : handle Event_queue.t;
  mutable now : float;
  mutable fired : int;
  mutable live : int; (* scheduled and not cancelled *)
  mutable slack : float;
  mutable window_base : float; (* NaN = no open window *)
  mutable picker : (handle list -> handle) option;
}

exception Stop

let create () =
  { queue = Event_queue.create ();
    now = 0.0;
    fired = 0;
    live = 0;
    slack = 0.0;
    window_base = Float.nan;
    picker = None }

let now t = t.now

let fired_events t = t.fired

let pending_events t = t.live

let queue_length t = Event_queue.length t.queue

let peak_queue_length t = Event_queue.max_length t.queue

(* Compaction policy: once the queue holds at least [compact_threshold]
   entries and more than half of them are tombstones, rebuild it keeping only
   live events. The rebuild is O(live + dead) and at least half the entries
   are dropped, so the cost amortizes to O(1) per cancellation. *)
let compact_threshold = 64

let maybe_compact t =
  let len = Event_queue.length t.queue in
  if len >= compact_threshold && len > 2 * t.live then
    Event_queue.filter_in_place t.queue (fun h -> not h.cancelled)

let schedule_at ?(proc = -1) ?(chan = -1) t ~time action =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)"
         time t.now);
  let handle = { cancelled = false; fire_at = time; proc; chan; action } in
  Event_queue.add t.queue ~time handle;
  t.live <- t.live + 1;
  handle

let schedule ?proc ?chan t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?proc ?chan t ~time:(t.now +. delay) action

let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    t.live <- t.live - 1;
    maybe_compact t
  end

let is_cancelled handle = handle.cancelled

let fire_time handle = handle.fire_at

let proc_of handle = handle.proc

let chan_of handle = handle.chan

(* Timestamp of the earliest *live* event, or NaN when the queue is drained:
   tombstones at the top of the queue are discarded on the way (a cancelled
   timer past a horizon must not mask a live event behind it). NaN rather
   than an option keeps the per-step horizon check allocation-free; every
   comparison against NaN is false, which is exactly the "no pending event"
   behaviour the horizon check wants. *)
let rec peek_live_time t =
  if Event_queue.is_empty t.queue then Float.nan
  else begin
    let h = Event_queue.peek_exn t.queue in
    if h.cancelled then begin
      ignore (Event_queue.pop_exn t.queue : handle);
      peek_live_time t
    end
    else h.fire_at
  end

let set_slack t slack =
  if slack < 0.0 || Float.is_nan slack then invalid_arg "Engine.set_slack";
  t.slack <- slack

let set_picker ?slack t pick =
  (match slack with Some s -> set_slack t s | None -> ());
  t.picker <- Some pick

(* The window stays anchored while live events remain inside it; it re-anchors
   to the earliest live event when it empties, or when something was scheduled
   *before* the base (an injection at a virtual time earlier than the frozen
   base — possible because [now] only catches up to the base on fire). *)
let refresh_window t =
  let min_t = peek_live_time t in
  if Float.is_nan min_t then t.window_base <- Float.nan
  else if
    Float.is_nan t.window_base
    || min_t < t.window_base
    || min_t > t.window_base +. t.slack
  then t.window_base <- min_t

let ready t =
  refresh_window t;
  if Float.is_nan t.window_base then []
  else begin
    let hi = t.window_base +. t.slack in
    let acc = ref [] in
    Event_queue.iter_entries t.queue (fun ~time ~seq (h : handle) ->
        if (not h.cancelled) && time <= hi then acc := (time, seq, h) :: !acc);
    let sorted =
      List.sort
        (fun (t1, s1, _) (t2, s2, _) ->
          if t1 < t2 then -1
          else if t1 > t2 then 1
          else compare (s1 : int) s2)
        !acc
    in
    (* FIFO fronts: per-channel delivery order is fixed, so only the earliest
       event of each channel is a genuine choice; later ones are hidden
       behind it. Events without a channel tag are always choices. *)
    let seen_chans = Hashtbl.create 16 in
    List.filter_map
      (fun (_, _, h) ->
        if h.chan < 0 then Some h
        else if Hashtbl.mem seen_chans h.chan then None
        else begin
          Hashtbl.add seen_chans h.chan ();
          Some h
        end)
      sorted
  end

let fire t h =
  if h.cancelled then
    invalid_arg "Engine.fire: event already fired or cancelled";
  (* Consume via the tombstone mechanism: the queue entry is skipped when it
     surfaces, exactly like a cancellation. *)
  h.cancelled <- true;
  t.live <- t.live - 1;
  let base =
    if Float.is_nan t.window_base then h.fire_at
    else Float.min t.window_base h.fire_at
  in
  if base > t.now then t.now <- base;
  t.fired <- t.fired + 1;
  h.action ();
  maybe_compact t

(* A checkpoint copies the queue (payloads by reference — they ARE the
   handles) plus, per queued handle, its [cancelled] flag at capture time.
   Restore puts the flags back *in place* on those same handle records, so
   outstanding references to them (a detector's pending-timer wrapper, the
   explorer's sleep sets) stay valid, and an event consumed after the capture
   becomes schedulable again. Handles scheduled after the capture simply
   vanish with the queue restore. The picker is deliberately not part of the
   state: it is harness configuration, not world state. *)

type checkpoint = {
  cp_queue : handle Event_queue.checkpoint;
  cp_flags : bool array; (* cancelled flag per queued handle, in heap order *)
  cp_now : float;
  cp_fired : int;
  cp_live : int;
  cp_slack : float;
  cp_window_base : float;
}

let checkpoint t =
  let flags = Array.make (Event_queue.length t.queue) false in
  let i = ref 0 in
  Event_queue.iter_entries t.queue (fun ~time:_ ~seq:_ (h : handle) ->
      flags.(!i) <- h.cancelled;
      incr i);
  { cp_queue = Event_queue.checkpoint t.queue;
    cp_flags = flags;
    cp_now = t.now;
    cp_fired = t.fired;
    cp_live = t.live;
    cp_slack = t.slack;
    cp_window_base = t.window_base }

let restore t cp =
  Event_queue.restore t.queue cp.cp_queue;
  (* [Event_queue.checkpoint] and [iter_entries] both walk slots in heap
     order, so flag [i] belongs to the handle now back in slot [i]. *)
  let i = ref 0 in
  Event_queue.iter_entries t.queue (fun ~time:_ ~seq:_ (h : handle) ->
      h.cancelled <- cp.cp_flags.(!i);
      incr i);
  t.now <- cp.cp_now;
  t.fired <- cp.cp_fired;
  t.live <- cp.cp_live;
  t.slack <- cp.cp_slack;
  t.window_base <- cp.cp_window_base

let fold_live t ~init ~f =
  let acc = ref init in
  Event_queue.iter_entries t.queue (fun ~time:_ ~seq:_ (h : handle) ->
      if not h.cancelled then acc := f !acc h);
  !acc

let default_step t =
  let rec next () =
    if Event_queue.is_empty t.queue then false
    else begin
      let h = Event_queue.pop_exn t.queue in
      if h.cancelled then next ()
      else begin
        (* Mark consumed: a later [cancel] on this handle must be a no-op,
           not a second decrement of [live]. *)
        h.cancelled <- true;
        t.now <- h.fire_at;
        t.live <- t.live - 1;
        t.fired <- t.fired + 1;
        h.action ();
        true
      end
    end
  in
  next ()

let step t =
  match t.picker with
  | None -> default_step t
  | Some pick -> (
    match ready t with
    | [] -> false
    | [ h ] ->
      fire t h;
      true
    | candidates ->
      let h = pick candidates in
      if not (List.memq h candidates) then
        invalid_arg "Engine.step: picker returned a non-candidate event";
      fire t h;
      true)

let default_max_steps = 10_000_000

let run ?(max_steps = default_max_steps) ?until t =
  let horizon_reached () =
    match until with
    | None -> false
    | Some horizon -> peek_live_time t > horizon
  in
  let rec loop steps =
    if steps >= max_steps then
      failwith
        (Printf.sprintf
           "Engine.run: exceeded %d steps at t=%g - likely a livelock"
           max_steps t.now)
    else if horizon_reached () then
      (match until with Some horizon when horizon > t.now -> t.now <- horizon | _ -> ())
    else
      match step t with
      | exception Stop -> ()
      | true -> loop (steps + 1)
      | false ->
        (* Queue drained: quiescent. *)
        (match until with Some horizon when horizon > t.now -> t.now <- horizon | _ -> ())
  in
  loop 0

let run_until t horizon = run ~until:horizon t
