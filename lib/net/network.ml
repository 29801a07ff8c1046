(* Simulated network: a complete graph of reliable (lossless, non-generating)
   FIFO channels with unbounded random delays.

   FIFO is enforced per ordered pair: a message's delivery time is at least
   epsilon after the previous delivery on the same channel.

   Channel state lives in a dense matrix indexed by small per-network pid
   slots (pids are interned on first contact, by {!Pid.Slots}): a send
   resolves each endpoint's slot with an array read by pid id, and its
   channel with two more array reads — no tuple allocation, and no hashing
   unless two incarnations of one id alternate. Crash and disconnection
   flags are dense arrays over the same slots, and
   a delivery recovers both pids from its channel's slots, so the delivery
   path is array reads only and hands the handler the destination's slot.

   Three ways a message can fail to be processed, all consistent with the
   paper's model:
   - the destination crashed (messages to down processes vanish);
   - the destination disconnected its incoming channel from the source
     (system property S1: once p believes q faulty, p never receives from q);
   - a partition separates the endpoints: delivery is *parked*, not lost, and
     resumes in order if the partition heals (channels stay reliable). *)

open Gmp_base

type 'm t = {
  engine : Gmp_sim.Engine.t;
  rng : Gmp_sim.Rng.t;
  delay : Delay.t;
  stats : Stats.t;
  fifo_epsilon : float;
  (* Pid interning: pid -> dense slot in the arrays below. *)
  slots : Pid.Slots.t;
  mutable cap : int; (* rows are [cap] wide, [cap >= Pid.Slots.length] *)
  (* chan_rows.(src_slot).(dst_slot): all mutable channel state in one
     record, found with two array reads per send (deliveries capture the
     record in their closure and pay no lookup at all). [dummy] marks
     not-yet-created channels (physical equality). *)
  mutable chan_rows : 'm channel array array;
  dummy : 'm channel;
  (* disc_rows.(dst_slot).(src_slot): dst has cut its incoming channel from
     src (S1). *)
  mutable disc_rows : bool array array;
  mutable crash_flags : bool array;
  (* Partition: pids mapped to a group label; absent pids are in group 0.
     None = fully connected. *)
  mutable partition : int Pid.Map.t option;
  mutable handler : dst_slot:int -> src:Pid.t -> 'm -> unit;
  mutable monitor : ('m send_record -> unit) option;
}

and 'm channel = {
  src_slot : int;
  dst_slot : int;
  (* Virtual time of the latest scheduled delivery, to enforce FIFO;
     [neg_infinity] before the first one. *)
  mutable last_delivery : float;
  (* Messages parked because of a partition, FIFO. *)
  parked : 'm parked_msg Queue.t;
}

and 'm parked_msg = { category : Stats.category; payload : 'm }

and 'm send_record = {
  record_src : Pid.t;
  record_dst : Pid.t;
  record_category : Stats.category;
  record_payload : 'm;
  record_time : float;
}

let default_handler ~dst_slot:_ ~src:_ _ =
  failwith "Network: no handler installed (call Network.set_handler)"

let initial_cap = 16

let create ?(fifo_epsilon = 1e-6) ~engine ~rng ~delay () =
  let dummy =
    { src_slot = -1;
      dst_slot = -1;
      last_delivery = Float.neg_infinity;
      parked = Queue.create () }
  in
  { engine;
    rng;
    delay;
    stats = Stats.create (Gmp_obs.Obs.create ());
    fifo_epsilon;
    slots = Pid.Slots.create ();
    cap = initial_cap;
    chan_rows = Array.init initial_cap (fun _ -> Array.make initial_cap dummy);
    dummy;
    disc_rows = Array.init initial_cap (fun _ -> Array.make initial_cap false);
    crash_flags = Array.make initial_cap false;
    partition = None;
    handler = default_handler;
    monitor = None }

let grow_tables t =
  let cap = 2 * t.cap in
  let chan_rows =
    Array.init cap (fun i ->
        let row = Array.make cap t.dummy in
        if i < t.cap then Array.blit t.chan_rows.(i) 0 row 0 t.cap;
        row)
  in
  let disc_rows =
    Array.init cap (fun i ->
        let row = Array.make cap false in
        if i < t.cap then Array.blit t.disc_rows.(i) 0 row 0 t.cap;
        row)
  in
  let crash_flags = Array.make cap false in
  Array.blit t.crash_flags 0 crash_flags 0 t.cap;
  t.chan_rows <- chan_rows;
  t.disc_rows <- disc_rows;
  t.crash_flags <- crash_flags;
  t.cap <- cap

let npids t = Pid.Slots.length t.slots

let pid_slot t pid =
  let slot = Pid.Slots.intern t.slots pid in
  if slot = t.cap then grow_tables t;
  slot

(* Slot if the pid has ever touched the network, else -1 (read-only paths
   must not intern). *)
let slot_of t pid = Pid.Slots.find t.slots pid

let channel t i j =
  let row = t.chan_rows.(i) in
  let ch = row.(j) in
  if ch != t.dummy then ch
  else begin
    let ch =
      { src_slot = i;
        dst_slot = j;
        last_delivery = Float.neg_infinity;
        parked = Queue.create () }
    in
    row.(j) <- ch;
    ch
  end

let set_handler t handler = t.handler <- handler
let set_monitor t monitor = t.monitor <- Some monitor

let stats t = t.stats
let engine t = t.engine

let crashed t pid =
  let slot = slot_of t pid in
  slot >= 0 && t.crash_flags.(slot)

let crash t pid = t.crash_flags.(pid_slot t pid) <- true

let is_disconnected t ~at ~from =
  let at = slot_of t at and from = slot_of t from in
  at >= 0 && from >= 0 && t.disc_rows.(at).(from)

let disconnect t ~at ~from =
  let at = pid_slot t at and from = pid_slot t from in
  t.disc_rows.(at).(from) <- true

let group_of t pid =
  match t.partition with
  | None -> 0
  | Some groups ->
    (match Pid.Map.find_opt pid groups with None -> 0 | Some g -> g)

let reachable t a b = group_of t a = group_of t b

let reachable_slots t i j =
  t.partition = None
  || reachable t (Pid.Slots.get t.slots i) (Pid.Slots.get t.slots j)

let partition t groups =
  let table =
    List.fold_left
      (fun acc (group, pids) ->
        List.fold_left (fun acc pid -> Pid.Map.add pid group acc) acc pids)
      Pid.Map.empty
      (List.mapi (fun i pids -> (i + 1, pids)) groups)
  in
  t.partition <- Some table

let deliver t ch ~category payload =
  if t.crash_flags.(ch.dst_slot) then
    Stats.record_dropped t.stats ~category
  else if t.disc_rows.(ch.dst_slot).(ch.src_slot) then
    (* S1: silently discarded at the receiver. *)
    Stats.record_dropped t.stats ~category
  else if not (reachable_slots t ch.src_slot ch.dst_slot) then
    (* Parked until the partition heals; channels stay reliable. *)
    Queue.add { category; payload } ch.parked
  else begin
    Stats.record_delivered t.stats ~category;
    t.handler ~dst_slot:ch.dst_slot ~src:(Pid.Slots.get t.slots ch.src_slot)
      payload
  end

(* Channel tag for the explorer: src and dst slots packed into one int. The
   proc tag is the destination slot — delivering a message only acts on the
   receiving process. *)
let chan_tag ch = (ch.src_slot lsl 16) lor ch.dst_slot

let schedule_on t ch ~category payload =
  let sample = Delay.sample t.delay t.rng in
  let now = Gmp_sim.Engine.now t.engine in
  let earliest =
    if ch.last_delivery = Float.neg_infinity then 0.0
    else ch.last_delivery +. t.fifo_epsilon
  in
  let at = Float.max (now +. sample) earliest in
  ch.last_delivery <- at;
  let (_ : Gmp_sim.Engine.handle) =
    Gmp_sim.Engine.schedule_at ~proc:ch.dst_slot ~chan:(chan_tag ch) t.engine
      ~time:at (fun () -> deliver t ch ~category payload)
  in
  ()

let send t ~src ~dst ~category payload =
  if Pid.equal src dst then invalid_arg "Network.send: src = dst";
  let ch = channel t (pid_slot t src) (pid_slot t dst) in
  if not t.crash_flags.(ch.src_slot) then begin
    Stats.record_sent t.stats ~category;
    (match t.monitor with
     | None -> ()
     | Some monitor ->
       monitor
         { record_src = src;
           record_dst = dst;
           record_category = category;
           record_payload = payload;
           record_time = Gmp_sim.Engine.now t.engine });
    schedule_on t ch ~category payload
  end

let heal t =
  t.partition <- None;
  (* Flush parked traffic in channel order with fresh delays. Channels are
     sorted by endpoint pair so the flush order (and thus the RNG draw
     order) is deterministic, not table order. *)
  let n = npids t in
  let pending = ref [] in
  for i = 0 to n - 1 do
    let row = t.chan_rows.(i) in
    for j = 0 to n - 1 do
      let ch = row.(j) in
      if ch != t.dummy && not (Queue.is_empty ch.parked) then
        pending :=
          ((Pid.Slots.get t.slots i, Pid.Slots.get t.slots j), ch) :: !pending
    done
  done;
  let pending =
    List.sort
      (fun ((a1, a2), _) ((b1, b2), _) ->
        match Pid.compare a1 b1 with 0 -> Pid.compare a2 b2 | c -> c)
      !pending
  in
  List.iter
    (fun (_, ch) ->
      let msgs = Queue.fold (fun acc m -> m :: acc) [] ch.parked in
      Queue.clear ch.parked;
      List.iter
        (fun { category; payload } -> schedule_on t ch ~category payload)
        (List.rev msgs))
    pending

let parked_count t =
  let n = npids t in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let row = t.chan_rows.(i) in
    for j = 0 to n - 1 do
      let ch = row.(j) in
      if ch != t.dummy then acc := !acc + Queue.length ch.parked
    done
  done;
  !acc

let slot_for t pid = pid_slot t pid

let pid_of_slot t slot =
  if slot >= 0 && slot < npids t then Some (Pid.Slots.get t.slots slot)
  else None

let decode_chan t tag =
  if tag < 0 then None
  else
    let src = tag lsr 16 and dst = tag land 0xffff in
    match (pid_of_slot t src, pid_of_slot t dst) with
    | Some s, Some d -> Some (s, d)
    | _ -> None

(* ---- checkpoint / restore ----

   The channel matrix is captured as the list of existing channel records
   (by reference) with their FIFO cursor and parked contents; restore puts
   those values back *into the same records*, because in-flight delivery
   events capture the channel record in their closure — a restored event
   must see the restored cursor through the reference it already holds.
   Channels created after the capture are unlinked from the matrix (their
   only other references die with the queue restore); pids interned after
   the capture are un-interned so a re-run re-creates them identically. *)

type 'm checkpoint = {
  cp_rng : Gmp_sim.Rng.checkpoint;
  cp_stats : Stats.checkpoint;
  cp_npids : int;
  cp_channels : ('m channel * float * 'm parked_msg array) list;
  cp_disc : bool array array; (* cp_npids x cp_npids *)
  cp_crash : bool array; (* cp_npids *)
  cp_partition : int Pid.Map.t option;
}

let checkpoint t =
  let n = npids t in
  let channels = ref [] in
  for i = 0 to n - 1 do
    let row = t.chan_rows.(i) in
    for j = 0 to n - 1 do
      let ch = row.(j) in
      if ch != t.dummy then
        channels :=
          (ch, ch.last_delivery, Array.of_seq (Queue.to_seq ch.parked))
          :: !channels
    done
  done;
  { cp_rng = Gmp_sim.Rng.checkpoint t.rng;
    cp_stats = Stats.checkpoint t.stats;
    cp_npids = n;
    cp_channels = !channels;
    cp_disc = Array.init n (fun i -> Array.sub t.disc_rows.(i) 0 n);
    cp_crash = Array.sub t.crash_flags 0 n;
    cp_partition = t.partition }

let restore t cp =
  Gmp_sim.Rng.restore t.rng cp.cp_rng;
  Stats.restore t.stats cp.cp_stats;
  t.partition <- cp.cp_partition;
  (* Forget pids interned after the capture, so a restored run re-interns
     them in the same order and gets the same slots. *)
  let old_npids = npids t in
  Pid.Slots.truncate t.slots cp.cp_npids;
  (* Wipe every slot that may have been touched since the capture, then
     reinstate the captured state. The wipe covers the pre-reset pid count:
     flags of dropped pids must not linger. *)
  for i = 0 to old_npids - 1 do
    let crow = t.chan_rows.(i) and drow = t.disc_rows.(i) in
    for j = 0 to old_npids - 1 do
      crow.(j) <- t.dummy;
      drow.(j) <- false
    done;
    t.crash_flags.(i) <- false
  done;
  List.iter
    (fun (ch, last_delivery, parked) ->
      ch.last_delivery <- last_delivery;
      Queue.clear ch.parked;
      Array.iter (fun m -> Queue.add m ch.parked) parked;
      t.chan_rows.(ch.src_slot).(ch.dst_slot) <- ch)
    cp.cp_channels;
  for i = 0 to cp.cp_npids - 1 do
    Array.blit cp.cp_disc.(i) 0 t.disc_rows.(i) 0 cp.cp_npids
  done;
  Array.blit cp.cp_crash 0 t.crash_flags 0 cp.cp_npids

(* Order-sensitive FNV-style mix; each component's position in the fold
   disambiguates it, so plain int mixing is enough. *)
let fp_combine h x = (h * 0x01000193) lxor (x land max_int)

let fingerprint t =
  let n = npids t in
  let h = ref (fp_combine 0x811c9dc5 n) in
  for i = 0 to n - 1 do
    if t.crash_flags.(i) then h := fp_combine !h (i + 1)
  done;
  h := fp_combine !h 0x5eed;
  for i = 0 to n - 1 do
    let row = t.disc_rows.(i) in
    for j = 0 to n - 1 do
      if row.(j) then h := fp_combine !h ((i lsl 16) lor j)
    done
  done;
  (match t.partition with
   | None -> h := fp_combine !h 0
   | Some groups ->
     h := fp_combine !h 1;
     Pid.Map.iter
       (fun pid g -> h := fp_combine (fp_combine !h (Pid.id pid)) g)
       groups);
  for i = 0 to n - 1 do
    let row = t.chan_rows.(i) in
    for j = 0 to n - 1 do
      let ch = row.(j) in
      if ch != t.dummy && not (Queue.is_empty ch.parked) then
        h :=
          fp_combine
            (fp_combine (fp_combine !h i) j)
            (Queue.length ch.parked)
    done
  done;
  !h
