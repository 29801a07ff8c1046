(* Heartbeat failure detector: the paper's F1 (Observation) source.

   Each process periodically beats to its peers; silence past the timeout
   triggers [suspect]. The paper is agnostic about the mechanism and only
   needs it to fire in finite time after a real crash; this one does (beats
   from a crashed process stop, so its peers' timeouts expire). Like any
   timeout detector in an asynchronous system it can also fire spuriously
   under long delays - exactly the "perceived failures" the protocol is
   designed to tolerate.

   The detector is platform-agnostic: it reads time through [now] and
   schedules its tick through [set_timer] (both normally the owning node's
   {!Gmp_platform.Platform.node} operations), so the same code drives F1 in
   the simulator and on wall clocks.

   Cost model: a received beat is one table lookup, and a tick is one
   lookup per peer. The one table, [entries], doubles as the peer set:
   every current peer has an entry (enrolled with a "not yet heard" mark
   until its first beat or tick), and [peers ()] is re-read only after
   [peers_changed], never per beat or per tick. Only current peers are
   tracked: beats from processes outside the peer set are dropped (a late
   beat from a suspected-and-forgotten peer must not resurrect its slot),
   and the first tick after a peer-set change prunes entries for peers
   that departed without an explicit [forget]. Without both, the table
   grows without bound under churn. While the set is unchanged every entry
   and every fired suspicion belongs to a current peer, so ticks skip the
   prune. Departed entries stay heard until that prune, exactly as a
   prune-every-tick detector would keep them. *)

open Gmp_base

(* [heard] is the time of the last beat, or of enrolment on the first tick
   that saw the peer; [nan] marks "not yet heard" (not counted by
   [tracked], treated by [check_peer] as a first sighting). [peer] says
   whether the pid was in the peer set at the last sync. *)
type entry = { mutable heard : float; mutable peer : bool }

type t = {
  now : unit -> float;
  set_timer : delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer;
  interval : float;
  timeout : float;
  send_beats : Pid.t list -> unit;
      (* one call per beat round: the platform fans it out as an
         indivisible broadcast, so the round costs one causal event (one
         vector-clock tick, one published snapshot) however many peers
         there are *)
  peers : unit -> Pid.t list;
  suspect : Pid.t -> unit;
  entries : entry Pid.Tbl.t;
  mutable current : Pid.t list; (* [peers ()] as of the last sync *)
  mutable stale : bool; (* [peers ()] may differ from [current] *)
  mutable unpruned : bool; (* synced since the last prune *)
  mutable running : bool;
  mutable pending : Gmp_platform.Platform.timer option;
      (* the scheduled next tick, so [stop] can cancel it instead of leaving
         the closure live in the heap until its fire time *)
  mutable suspects_fired : Pid.Set.t;
}

let create ~now ~set_timer ~interval ~timeout ~send_beats ~peers ~suspect () =
  if interval <= 0.0 then invalid_arg "Heartbeat.create: bad interval";
  if timeout <= interval then
    invalid_arg "Heartbeat.create: timeout must exceed interval";
  { now;
    set_timer;
    interval;
    timeout;
    send_beats;
    peers;
    suspect;
    entries = Pid.Tbl.create 16;
    current = [];
    stale = true;
    unpruned = false;
    running = false;
    pending = None;
    suspects_fired = Pid.Set.empty }

let peers_changed t = t.stale <- true

(* Re-read the peer set: mark every entry by membership, enrolling new
   peers as not yet heard. Removal waits for the next tick's prune. *)
let sync t =
  if t.stale then begin
    let peers = t.peers () in
    t.current <- peers;
    t.stale <- false;
    t.unpruned <- true;
    Pid.Tbl.iter (fun _ e -> e.peer <- false) t.entries;
    List.iter
      (fun pid ->
        match Pid.Tbl.find t.entries pid with
        | e -> e.peer <- true
        | exception Not_found ->
          Pid.Tbl.replace t.entries pid { heard = Float.nan; peer = true })
      peers
  end

let beat_received t ~from =
  (* Only current peers are tracked: a beat from a departed or never-known
     process (late in flight when the sender was excluded) is ignored. *)
  sync t;
  match Pid.Tbl.find t.entries from with
  | e -> if e.peer then e.heard <- t.now ()
  | exception Not_found -> ()

let forget t pid =
  (match Pid.Tbl.find t.entries pid with
   | e -> if e.peer then e.heard <- Float.nan else Pid.Tbl.remove t.entries pid
   | exception Not_found -> ());
  t.suspects_fired <- Pid.Set.remove pid t.suspects_fired

(* Drop state for processes that are no longer peers (departed via a view
   change that never called [forget]). Keys are collected before removal -
   mutating a table during fold is undefined. *)
let prune t =
  let stale =
    Pid.Tbl.fold
      (fun pid e acc -> if e.peer then acc else pid :: acc)
      t.entries []
  in
  List.iter (Pid.Tbl.remove t.entries) stale;
  t.suspects_fired <-
    Pid.Set.filter
      (fun pid ->
        match Pid.Tbl.find t.entries pid with
        | e -> e.peer
        | exception Not_found -> false)
      t.suspects_fired;
  t.unpruned <- false

let check_peer t now pid =
  match Pid.Tbl.find t.entries pid with
  | exception Not_found -> ()
  | e ->
    (* Not yet heard: first sighting, grant a full timeout's grace. *)
    if Float.is_nan e.heard then e.heard <- now;
    if now -. e.heard > t.timeout
       && not (Pid.Set.mem pid t.suspects_fired)
    then begin
      t.suspects_fired <- Pid.Set.add pid t.suspects_fired;
      t.suspect pid
    end

let tick t =
  if t.running then begin
    let now = t.now () in
    sync t;
    if t.unpruned then prune t;
    let peers = t.current in
    if peers <> [] then t.send_beats peers;
    List.iter (check_peer t now) peers
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let rec loop () =
      (* This event is firing, so it is no longer pending: a [stop] from
         inside [tick] must not cancel an already-fired handle. *)
      t.pending <- None;
      if t.running then begin
        tick t;
        if t.running then t.pending <- Some (t.set_timer ~delay:t.interval loop)
      end
    in
    t.pending <- Some (t.set_timer ~delay:t.interval loop)
  end

let stop t =
  t.running <- false;
  match t.pending with
  | None -> ()
  | Some timer ->
    t.pending <- None;
    timer.Gmp_platform.Platform.cancel ()

let is_running t = t.running

let last_heard t =
  Pid.Tbl.fold
    (fun pid e acc -> if Float.is_nan e.heard then acc else (pid, e.heard) :: acc)
    t.entries []
  |> List.sort (fun (p, _) (q, _) -> Pid.compare p q)

let tracked t = List.length (last_heard t)

(* Checkpoints capture the mutable detector state. [pending] is saved by
   reference: the timer wrapper closes over the engine handle that was
   scheduled at capture time, and the engine's own restore resurrects that
   handle in place, so the saved wrapper cancels the right event after a
   restore. Entries are mutable, so they are copied out at capture and
   rebuilt at restore; table iteration order is not observable
   (sync/prune/forget compute order-independent final states). *)
type checkpoint = {
  cp_entries : (Pid.t * float * bool) list;
  cp_current : Pid.t list;
  cp_stale : bool;
  cp_unpruned : bool;
  cp_running : bool;
  cp_pending : Gmp_platform.Platform.timer option;
  cp_suspects : Pid.Set.t;
}

let checkpoint t =
  { cp_entries =
      Pid.Tbl.fold (fun pid e acc -> (pid, e.heard, e.peer) :: acc) t.entries [];
    cp_current = t.current;
    cp_stale = t.stale;
    cp_unpruned = t.unpruned;
    cp_running = t.running;
    cp_pending = t.pending;
    cp_suspects = t.suspects_fired }

let restore t cp =
  Pid.Tbl.reset t.entries;
  List.iter
    (fun (pid, heard, peer) -> Pid.Tbl.replace t.entries pid { heard; peer })
    cp.cp_entries;
  t.current <- cp.cp_current;
  t.stale <- cp.cp_stale;
  t.unpruned <- cp.cp_unpruned;
  t.running <- cp.cp_running;
  t.pending <- cp.cp_pending;
  t.suspects_fired <- cp.cp_suspects
