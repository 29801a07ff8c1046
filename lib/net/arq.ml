(* The paper's footnote-2 channel as one go-back-N state machine per
   ordered process pair. The sender numbers frames consecutively (modulo
   the sequence space), keeps up to a window of them unacked, backlogs the
   rest, and resends the whole window when the timer fires, doubling the
   timeout per silent round up to [rto_max] and resetting it on ack
   progress: a dead link costs O(log) rounds per quiet spell, not a storm
   every rto. The receiver delivers exactly the next expected frame, acks
   cumulatively on every data frame, and keeps no reorder buffer.

   The alternating bit (window 1, 1-bit sequence numbers, fixed rto) runs
   in the simulator, driven below over [Lossy]; go-back-N proper
   (unbounded window and sequence numbers, backoff) is what the live node
   ships over its transport and timer wheel. *)

open Gmp_base
module Obs = Gmp_obs.Obs

(* ---- the state machine: no medium, no timers, no clock of its own ---- *)

module Machine = struct
  type config = {
    window : int; (* frames in flight; [max_int] = unbounded *)
    modulus : int; (* sequence space; 0 = unbounded integers *)
    rto : float;
    rto_max : float;
    data_frames_sent : Obs.counter;
    retransmits : Obs.counter;
    retransmit_rounds : Obs.counter;
    dups_suppressed : Obs.counter;
    out_of_window_drops : Obs.counter;
    rtt : Obs.histogram;
    backoff_rounds : Obs.histogram;
  }

  let config ~window ~modulus ~rto ~rto_max r =
    if rto <= 0.0 then invalid_arg "Arq: non-positive rto";
    if rto_max < rto then invalid_arg "Arq: rto_max below rto";
    let counter name = Obs.counter r ("arq." ^ name) in
    { window;
      modulus;
      rto;
      rto_max;
      data_frames_sent = counter "data_frames_sent";
      retransmits = counter "retransmits";
      retransmit_rounds = counter "retransmit_rounds";
      dups_suppressed = counter "dups_suppressed";
      out_of_window_drops = counter "out_of_window_drops";
      rtt = Obs.histogram r "arq.rtt";
      backoff_rounds =
        Obs.histogram ~buckets:Obs.round_buckets r "arq.backoff_rounds" }

  let alternating_bit ~rto r =
    config ~window:1 ~modulus:2 ~rto ~rto_max:rto r

  let go_back_n ~rto ~rto_max r =
    config ~window:max_int ~modulus:0 ~rto ~rto_max r

  (* [a - b], and [n + 1], in the sequence space. *)
  let distance c a b =
    if c.modulus = 0 then a - b else (a - b + c.modulus) mod c.modulus

  let succ c n = if c.modulus = 0 then n + 1 else (n + 1) mod c.modulus

  type 'p entry = {
    seq : int;
    payload : 'p;
    sent_at : float;
    mutable clean : bool; (* never retransmitted: rtt-sampleable *)
  }

  type timer = Keep | Stop | Arm of float
  type 'p output = { frames : 'p entry list; timer : timer }

  let nothing = { frames = []; timer = Keep }

  type ('p, 'h) sender = {
    c : config;
    mutable handle : 'h option; (* the driver's, on the armed deadline *)
    mutable next_seq : int;
    unacked : 'p entry Queue.t;
    backlog : 'p Queue.t;
    mutable rto_cur : float; (* in [rto, rto_max] *)
    mutable quiet_rounds : int; (* retransmit rounds since ack progress *)
  }

  let sender c =
    { c;
      handle = None;
      next_seq = 0;
      unacked = Queue.create ();
      backlog = Queue.create ();
      rto_cur = c.rto;
      quiet_rounds = 0 }

  (* The one order every driver follows: cancel, transmit, re-arm. *)
  let apply s out ~cancel ~transmit ~schedule =
    (match out.timer with
    | Keep -> ()
    | Stop | Arm _ ->
      Option.iter cancel s.handle;
      s.handle <- None);
    List.iter transmit out.frames;
    match out.timer with
    | Arm at -> s.handle <- Some (schedule at)
    | Keep | Stop -> ()

  (* The retransmit deadline is armed exactly while frames are unacked,
     and the backlog only fills behind a full window. *)
  let idle s = Queue.is_empty s.unacked

  let launch s ~now payload =
    let e = { seq = s.next_seq; payload; sent_at = now; clean = true } in
    s.next_seq <- succ s.c e.seq;
    Queue.add e s.unacked;
    Obs.inc s.c.data_frames_sent;
    e

  (* Move backlogged messages into free window slots, in order. *)
  let rec refill s ~now acc =
    if Queue.length s.unacked < s.c.window && not (Queue.is_empty s.backlog)
    then refill s ~now (launch s ~now (Queue.pop s.backlog) :: acc)
    else List.rev acc

  let send s ~now payload =
    let was_idle = idle s in
    Queue.add payload s.backlog;
    let frames = refill s ~now [] in
    { frames; timer = (if was_idle then Arm (now +. s.rto_cur) else Keep) }

  let timeout s ~now =
    Obs.inc s.c.retransmit_rounds;
    s.quiet_rounds <- s.quiet_rounds + 1;
    Queue.iter (fun e -> e.clean <- false) s.unacked;
    Obs.inc ~by:(Queue.length s.unacked) s.c.retransmits;
    s.rto_cur <- Float.min (s.rto_cur *. 2.0) s.c.rto_max;
    let frames = List.of_seq (Queue.to_seq s.unacked) in
    { frames; timer = Arm (now +. s.rto_cur) }

  let ack s ~now ~next =
    let n = Queue.length s.unacked in
    let k = if n = 0 then 0 else distance s.c next (Queue.peek s.unacked).seq in
    (* Stale acks, and acks for frames never sent, make no progress. *)
    if k < 1 || k > n then nothing
    else begin
      for _ = 1 to k do
        let e = Queue.pop s.unacked in
        (* A retransmitted frame's ack cannot be attributed to one flight
           (Karn's rule): sample clean frames only. *)
        if e.clean then Obs.observe s.c.rtt (now -. e.sent_at)
      done;
      (* The link passes traffic again: reset the backoff and re-arm from
         now, so recovery after a lossy spell is prompt. *)
      s.rto_cur <- s.c.rto;
      if s.quiet_rounds > 0 then begin
        Obs.observe s.c.backoff_rounds (float_of_int s.quiet_rounds);
        s.quiet_rounds <- 0
      end;
      let frames = refill s ~now [] in
      { frames; timer = (if idle s then Stop else Arm (now +. s.rto_cur)) }
    end

  let teardown s =
    Queue.clear s.unacked;
    Queue.clear s.backlog;
    s.rto_cur <- s.c.rto;
    s.quiet_rounds <- 0;
    { frames = []; timer = Stop }

  type receiver = { rc : config; mutable expected : int }

  let receiver rc = { rc; expected = 0 }
  let ack_next r = r.expected

  let receive r ~seq =
    let c = r.rc in
    let d = distance c seq r.expected in
    if d = 0 then r.expected <- succ c seq
    else if d < 0 || (c.modulus > 0 && d >= c.modulus - c.window) then
      Obs.inc c.dups_suppressed
    else Obs.inc c.out_of_window_drops;
    d = 0
end

(* ---- the simulator's driver: the alternating bit over [Lossy] ---- *)

module Engine = Gmp_sim.Engine

type 'm frame = Data of { seq : int; payload : 'm } | Ack of { next : int }

type 'm t = {
  engine : Engine.t;
  lossy : 'm frame Lossy.t;
  config : Machine.config;
  (* both keyed (src,dst) *)
  senders : (Pid.t * Pid.t, ('m, Engine.handle) Machine.sender) Hashtbl.t;
  receivers : (Pid.t * Pid.t, Machine.receiver) Hashtbl.t;
  mutable handler : dst:Pid.t -> src:Pid.t -> 'm -> unit;
}

let set_handler t handler = t.handler <- handler
let retransmissions t = Obs.counter_value t.config.retransmits
let datagrams_sent t = Lossy.datagrams_sent t.lossy
let datagrams_lost t = Lossy.datagrams_lost t.lossy

let rec apply t ~src ~dst tx out =
  Machine.apply tx out ~cancel:(Engine.cancel t.engine)
    ~transmit:(fun (e : 'm Machine.entry) ->
      Lossy.send t.lossy ~src ~dst (Data { seq = e.seq; payload = e.payload }))
    ~schedule:(fun time ->
      Engine.schedule_at t.engine ~time (fun () ->
          apply t ~src ~dst tx (Machine.timeout tx ~now:(Engine.now t.engine))))

let find_or_add t tbl key make =
  try Hashtbl.find tbl key
  with Not_found ->
    let v = make t.config in
    Hashtbl.replace tbl key v;
    v

let send t ~src ~dst payload =
  if Pid.equal src dst then invalid_arg "Arq.send: src = dst";
  let tx = find_or_add t t.senders (src, dst) Machine.sender in
  apply t ~src ~dst tx (Machine.send tx ~now:(Engine.now t.engine) payload)

let handle_frame t ~dst ~src = function
  | Data { seq; payload } ->
    let r = find_or_add t t.receivers (src, dst) Machine.receiver in
    let deliver = Machine.receive r ~seq in
    (* Always ack what arrived - a lost ack must be regenerated by the
       retransmitted data. *)
    Lossy.send t.lossy ~src:dst ~dst:src (Ack { next = Machine.ack_next r });
    if deliver then t.handler ~dst ~src payload
  | Ack { next } -> (
    (* The ack travels dst->src: the sender is keyed by the reversed pair. *)
    match Hashtbl.find_opt t.senders (dst, src) with
    | None -> ()
    | Some tx ->
      let now = Engine.now t.engine in
      apply t ~src:dst ~dst:src tx (Machine.ack tx ~now ~next))

let teardown t ~src ~dst =
  match Hashtbl.find_opt t.senders (src, dst) with
  | None -> ()
  | Some tx -> apply t ~src ~dst tx (Machine.teardown tx)

let teardown_to t dst =
  Hashtbl.iter
    (fun (src, d) _ -> if Pid.equal d dst then teardown t ~src ~dst)
    t.senders

let create ?(loss = 0.2) ?(duplicate = 0.05) ?(rto = 5.0) ?(fifo = true)
    ?(registry = Obs.create ()) ~engine ~rng ~delay () =
  let config = Machine.alternating_bit ~rto registry in
  let lossy = Lossy.create ~loss ~duplicate ~fifo ~engine ~rng ~delay () in
  let t =
    { engine;
      lossy;
      config;
      senders = Hashtbl.create 32;
      receivers = Hashtbl.create 32;
      handler = (fun ~dst:_ ~src:_ _ -> failwith "Arq: no handler") }
  in
  Obs.register_view registry "arq.datagrams_sent" (fun () -> datagrams_sent t);
  Obs.register_view registry "arq.datagrams_lost" (fun () -> datagrams_lost t);
  Lossy.set_handler lossy (fun ~dst ~src f -> handle_frame t ~dst ~src f);
  t
