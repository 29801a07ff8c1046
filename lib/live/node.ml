(* One live GMP process: the real-world implementation of the Platform
   seam.

   A node owns one transport (UDP datagrams or managed TCP streams,
   behind the [Transport] seam) and a single thread: the poll loop
   alternates between draining the transport and firing due wall-clock
   timers, so - exactly as in the simulator - protocol callbacks never
   run concurrently and the core needs no locks.

   Between nodes runs [Gmp_net.Arq]'s go-back-N state machine, driven
   here over the transport and the timer wheel. It lives above the
   transport seam on purpose: even TCP is only best-effort here
   (connections die, half-open streams are killed, stalled outboxes drop
   frames), so retransmission is the sole owner of reliability on either
   wire.

   Fault injection is receiver-side, at message ingress - after the
   transport has reassembled a complete frame, before the protocol sees
   it. That placement is what lets one netem model serve both transports:
   a "lost" frame over TCP was really delivered by the kernel and then
   discarded here, and it is the ARQ's retransmission (not TCP's) that
   resurrects it, exactly as over UDP. An arriving frame is decoded, then
   its fate is drawn from the link's model (keyed by the sending pid;
   control frames use a dedicated stream) and the surviving copies are
   re-injected through the timer wheel after their sampled delay. Seeding
   is per (netem_seed, self, peer) link, so a soak's fault pattern is
   reproducible per link even though wall-clock timing is not.

   Vector clocks follow the same discipline as the simulator's runtime:
   tick on send, broadcast and local event; merge+tick on delivery. The
   clock itself is a monotonicized [Unix.gettimeofday] - absolute, so the
   logs of separately-spawned processes share one time axis and the
   orchestrator can merge them; monotonicized, because timer logic breaks
   if NTP steps the wall clock backwards. *)

open Gmp_base
open Gmp_causality
open Gmp_core
module Platform = Gmp_platform.Platform
module Stats = Gmp_platform.Stats
module Netem = Gmp_net.Netem
module Endpoint = Gmp_net.Endpoint
module Rng = Gmp_sim.Rng
module Obs = Gmp_obs.Obs

module Arq = Gmp_net.Arq.Machine

type t = {
  pid : Pid.t;
  transport : Transport.t;
  timers : Timers.t;
  arq : Arq.config;
  links : (Vector_clock.t * Wire.t, Timers.entry) Arq.sender Pid.Tbl.t;
  receivers : Arq.receiver Pid.Tbl.t;
  mutable blackholed : Pid.Set.t; (* fault injection: drop their frames *)
  mutable disconnected : Pid.Set.t; (* S1: permanent incoming disconnect *)
  vc : Vector_clock.Mutable.clock; (* copy-on-write: snapshot to publish *)
  mutable events : int; (* local history length *)
  mutable alive : bool;
  mutable stopping : bool; (* orchestrator asked for clean shutdown *)
  mutable receiver : src:Pid.t -> Wire.t -> unit;
  last_now : float ref; (* monotonicity floor; shared with the transport *)
  stats : Stats.t;
  (* netem: the node's default incoming-link model, per-peer overrides,
     and one seeded RNG stream per link (control frames get their own). *)
  mutable netem_default : Netem.t;
  netem_overrides : Netem.t Pid.Tbl.t;
  netem_seed : int;
  link_rngs : Rng.t Pid.Tbl.t;
  ctrl_rng : Rng.t;
  registry : Obs.registry;
  netem_dropped : Obs.counter;
  netem_duplicated : Obs.counter;
  netem_reordered : Obs.counter;
  log : string -> unit;
}

let default_rto = 0.25
let default_rto_max_factor = 16.0

let create ?(peers = []) ?(transport = Transport.Udp) ?tcp_config
    ?(rto = default_rto) ?rto_max ?(netem = Netem.none) ?(netem_seed = 0)
    ?(log = fun _ -> ()) ~pid ~bind () =
  let rto_max = Option.value rto_max ~default:(rto *. default_rto_max_factor) in
  let registry = Obs.create () in
  let arq = Arq.go_back_n ~rto ~rto_max registry in
  (* The transport needs the clock before the node record exists, so the
     monotonicity floor lives in a ref both close over. *)
  let last_now = ref 0.0 in
  let now () =
    let w = Unix.gettimeofday () in
    if w > !last_now then last_now := w;
    !last_now
  in
  let transport =
    Transport.make ?tcp_config ~kind:transport ~registry ~bind ~now ~log ()
  in
  let t =
    { pid;
      transport;
      timers = Timers.create ();
      arq;
      links = Pid.Tbl.create 16;
      receivers = Pid.Tbl.create 16;
      blackholed = Pid.Set.empty;
      disconnected = Pid.Set.empty;
      vc = Vector_clock.Mutable.create ();
      events = 0;
      alive = true;
      stopping = false;
      receiver = (fun ~src:_ _ -> ());
      last_now;
      stats = Stats.create registry;
      netem_default = netem;
      netem_overrides = Pid.Tbl.create 4;
      netem_seed;
      link_rngs = Pid.Tbl.create 16;
      ctrl_rng = Rng.create (Netem.link_seed ~seed:netem_seed ~self:pid ~peer:pid);
      registry;
      netem_dropped = Obs.counter registry "netem.dropped";
      netem_duplicated = Obs.counter registry "netem.duplicated";
      netem_reordered = Obs.counter registry "netem.reordered";
      log }
  in
  List.iter (fun (p, ep) -> t.transport.Transport.add_peer p ep) peers;
  t

let pid t = t.pid
let endpoint t = t.transport.Transport.endpoint ()
let port t = Endpoint.port (endpoint t)
let stats t = t.stats
let alive t = t.alive
let stopping t = t.stopping
let clock t = Vector_clock.Mutable.snapshot t.vc
let blackholed t = t.blackholed
let netem t = t.netem_default
let transport_kind t = t.transport.Transport.kind
let registry t = t.registry
let metrics t = Obs.snapshot t.registry

let idle t = Pid.Tbl.fold (fun _ l acc -> acc && Arq.idle l) t.links true

let set_netem t ?peer model =
  match peer with
  | None -> t.netem_default <- model
  | Some p -> Pid.Tbl.replace t.netem_overrides p model

let add_peer t p ep = t.transport.Transport.add_peer p ep

let now t =
  let w = Unix.gettimeofday () in
  if w > !(t.last_now) then t.last_now := w;
  !(t.last_now)

let local_event t =
  Vector_clock.Mutable.tick t.vc t.pid;
  t.events <- t.events + 1;
  (t.events, Vector_clock.Mutable.snapshot t.vc)

let find_or_add tbl k make =
  match Pid.Tbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = make () in
    Pid.Tbl.replace tbl k v;
    v

(* ---- frames out; the ARQ sender side onto the wire and the wheel ---- *)

let sendto t ~dst bytes = t.transport.Transport.send ~dst bytes

let rec apply t ~dst l out =
  Arq.apply l out ~cancel:Timers.cancel
    ~transmit:(fun (e : _ Arq.entry) ->
      let vc, msg = e.payload in
      sendto t ~dst
        (Codec.encode_frame
           (Codec.Data { src = t.pid; chan_seq = e.seq; vc; msg })))
    ~schedule:(fun at ->
      Timers.schedule t.timers ~at (fun () ->
          if t.alive then apply t ~dst l (Arq.timeout l ~now:(now t))))

let transmit t ~dst msg =
  let l = find_or_add t.links dst (fun () -> Arq.sender t.arq) in
  (* The payload is re-encoded, [chan_seq] and all, on every resend. *)
  let payload = (Vector_clock.Mutable.snapshot t.vc, msg) in
  apply t ~dst l (Arq.send l ~now:(now t) payload)

(* ---- platform operations ---- *)

let send t ~dst ~category payload =
  if t.alive then begin
    Vector_clock.Mutable.tick t.vc t.pid;
    t.events <- t.events + 1;
    Stats.record_sent t.stats ~category;
    transmit t ~dst payload
  end

let broadcast t ~dsts ~category payload =
  (* One vc tick for the whole broadcast, as in the simulator; the sends
     themselves are sequential frames (indivisible in the paper's sense,
     not failure-atomic). *)
  if t.alive then begin
    Vector_clock.Mutable.tick t.vc t.pid;
    t.events <- t.events + 1;
    List.iter
      (fun dst ->
        if not (Pid.equal dst t.pid) then begin
          Stats.record_sent t.stats ~category;
          transmit t ~dst payload
        end)
      dsts
  end

let disconnect_from t ~from =
  (* S1: sever the incoming channel permanently. Also stop retransmitting
     toward the severed peer - it is being excluded; an unacked window
     kept alive forever would spin the timer wheel for a corpse - and let
     the transport tear down its route (a TCP stream to an excluded peer
     has nothing left to carry). *)
  t.disconnected <- Pid.Set.add from t.disconnected;
  Pid.Tbl.remove t.receivers from;
  Option.iter
    (fun l -> apply t ~dst:from l (Arq.teardown l))
    (Pid.Tbl.find_opt t.links from);
  t.transport.Transport.remove_peer from

let halt t =
  if t.alive then begin
    t.alive <- false;
    Pid.Tbl.iter (fun dst l -> apply t ~dst l (Arq.teardown l)) t.links;
    Pid.Tbl.reset t.links
  end

let set_timer t ~delay f =
  let e =
    Timers.schedule t.timers
      ~at:(now t +. delay)
      (fun () -> if t.alive then f ())
  in
  { Platform.cancel = (fun () -> Timers.cancel e) }

let every t ~interval f =
  if interval <= 0.0 then invalid_arg "Node.every: non-positive interval";
  let rec loop () =
    if t.alive then begin
      f ();
      if t.alive then
        ignore
          (Timers.schedule t.timers ~at:(now t +. interval) loop
            : Timers.entry)
    end
  in
  ignore (Timers.schedule t.timers ~at:(now t +. interval) loop : Timers.entry)

let platform t =
  { Platform.pid = t.pid;
    alive = (fun () -> t.alive);
    now = (fun () -> now t);
    clock = (fun () -> clock t);
    local_event = (fun () -> local_event t);
    send = (fun ~dst ~category payload -> send t ~dst ~category payload);
    broadcast =
      (fun ~dsts ~category payload -> broadcast t ~dsts ~category payload);
    disconnect_from = (fun ~from -> disconnect_from t ~from);
    halt = (fun () -> halt t);
    set_receiver = (fun f -> t.receiver <- f);
    set_timer = (fun ~delay f -> set_timer t ~delay f);
    every = (fun ~interval f -> every t ~interval f);
    log = t.log }

(* ---- ARQ receiver side / frame dispatch ---- *)

let send_ack t ~dst ~ack_next =
  sendto t ~dst (Codec.encode_frame (Codec.Ack { src = t.pid; ack_next }))

let handle_data t ~(origin : Transport.origin) ~src ~chan_seq ~sender_vc msg =
  (* Learn the peer's route from its traffic: joiners announce
     themselves, no static address book required. The transport keeps
     configured routes authoritative and only fills gaps. *)
  origin.learn src;
  let r = find_or_add t.receivers src (fun () -> Arq.receiver t.arq) in
  let deliver = Arq.receive r ~seq:chan_seq in
  (* Ack every data frame, delivered or not, so the sender's window can
     advance past a lost ack. *)
  send_ack t ~dst:src ~ack_next:(Arq.ack_next r);
  if deliver then begin
    Vector_clock.Mutable.merge_tick t.vc sender_vc t.pid;
    t.events <- t.events + 1;
    Stats.record_delivered t.stats ~category:(Wire.category_id msg);
    t.receiver ~src msg
  end

let apply_ctrl t = function
  | Codec.Get_metrics -> () (* handled in dispatch: replies Metrics, not ack *)
  | Codec.Shutdown -> t.stopping <- true
  | Codec.Blackhole p ->
    t.blackholed <- Pid.Set.add p t.blackholed;
    t.log (Printf.sprintf "blackholing %s" (Pid.to_string p))
  | Codec.Unblackhole p ->
    t.blackholed <- Pid.Set.remove p t.blackholed;
    t.log (Printf.sprintf "unblackholing %s" (Pid.to_string p))
  | Codec.Set_netem { peer; n_loss; n_latency; n_jitter; n_dup; n_reorder } ->
    let model =
      Netem.of_latency ~loss:n_loss ~duplicate:n_dup ~reorder:n_reorder
        ~jitter:n_jitter n_latency
    in
    set_netem t ?peer model;
    t.log
      (Fmt.str "netem %s <- %a"
         (match peer with
         | None -> "default"
         | Some p -> Pid.to_string p)
         Netem.pp model)

let handle_frame t ~(origin : Transport.origin) = function
  | Codec.Data { src; chan_seq; vc; msg } ->
    if
      t.alive
      && (not (Pid.Set.mem src t.blackholed))
      && not (Pid.Set.mem src t.disconnected)
    then handle_data t ~origin ~src ~chan_seq ~sender_vc:vc msg
    else if t.alive && Pid.Set.mem src t.blackholed then
      Stats.record_dropped t.stats ~category:(Wire.category_id msg)
  | Codec.Ack { src; ack_next } -> (
    match Pid.Tbl.find_opt t.links src with
    | Some l when t.alive && not (Pid.Set.mem src t.blackholed) ->
      apply t ~dst:src l (Arq.ack l ~now:(now t) ~next:ack_next)
    | _ -> ())
  | Codec.Ctrl { token; cmd = Codec.Get_metrics } ->
    (* A query, not a mutation: the reply carries the snapshot and doubles
       as the ack (same token), so the scrape rides the same retry loop as
       the fault commands and survives the same weather. *)
    let payload =
      Json.to_compact_string (Obs.Snapshot.to_json (Obs.snapshot t.registry))
    in
    origin.reply (Codec.encode_frame (Codec.Metrics { token; payload }))
  | Codec.Ctrl { token; cmd } ->
    (* Apply, then ack straight back along the arrival path. The ack is
       the applied-receipt: a sender that got it knows the command took
       effect; one that did not retries the (idempotent) command. *)
    apply_ctrl t cmd;
    origin.reply (Codec.encode_frame (Codec.Ctrl_ack { token }))
  | Codec.Ctrl_ack _ | Codec.Metrics _ ->
    () (* orchestrator-bound; noise to a node *)

(* ---- netem ingress: the shared fault-injection seam ---- *)

let link_model t src =
  match Pid.Tbl.find_opt t.netem_overrides src with
  | Some m -> m
  | None -> t.netem_default

let link_rng t src =
  find_or_add t.link_rngs src (fun () ->
      Rng.create (Netem.link_seed ~seed:t.netem_seed ~self:t.pid ~peer:src))

let ingress t ~(origin : Transport.origin) frame =
  (* Decode first, then draw the frame's fate from the link model:
     per-peer for protocol traffic, the dedicated control stream for
     orchestrator frames (the control plane faces the same weather - which
     is why it is acked and retried). This runs after the transport has
     reassembled a complete frame, so both transports face identical
     weather: over TCP, a dropped frame is resurrected by the ARQ's
     retransmission, never by the kernel. Surviving copies re-enter the
     poll loop through the timer wheel after their sampled delay;
     independent per-copy delays plus the explicit hold give real
     reordering. *)
  let model, rng =
    match frame with
    | Codec.Data { src; _ } | Codec.Ack { src; _ } ->
      (link_model t src, lazy (link_rng t src))
    | Codec.Ctrl _ | Codec.Ctrl_ack _ | Codec.Metrics _ ->
      (t.netem_default, lazy t.ctrl_rng)
  in
  if Netem.is_none model then handle_frame t ~origin frame
  else
    match Netem.sample model (Lazy.force rng) with
    | Netem.Drop -> Obs.inc t.netem_dropped
    | Netem.Deliver { delay; dup_delay; held } ->
      if held then Obs.inc t.netem_reordered;
      let inject d =
        if d <= 0.0 then handle_frame t ~origin frame
        else
          ignore
            (Timers.schedule t.timers
               ~at:(now t +. d)
               (fun () -> if t.alive then handle_frame t ~origin frame)
              : Timers.entry)
      in
      inject delay;
      (match dup_delay with
      | None -> ()
      | Some d ->
        Obs.inc t.netem_duplicated;
        inject d)

let drain t =
  t.transport.Transport.drain (fun ~origin raw ->
      match Codec.decode_frame raw with
      | Ok frame -> ingress t ~origin frame
      | Error e ->
        t.log (Fmt.str "dropping undecodable frame: %a" Codec.pp_error e))

(* ---- poll loop ---- *)

let max_poll = 0.2
(* Upper bound on one select sleep: keeps the loop responsive to [run]'s
   deadline and cheap to reason about; idle wakeups at 5 Hz are free. *)

let step t =
  let n = now t in
  ignore (Timers.fire_due t.timers ~now:n : int);
  t.transport.Transport.tick ~now:n;
  let timeout =
    let bound acc = function
      | None -> acc
      | Some at -> Float.min acc (Float.max 0.0 (at -. n))
    in
    bound
      (bound max_poll (Timers.next_deadline t.timers))
      (t.transport.Transport.next_deadline ())
  in
  (match
     Unix.select
       (t.transport.Transport.rfds ())
       (t.transport.Transport.wfds ())
       [] timeout
   with
  | [], [], _ -> ()
  | _readable, _writable, _ ->
    (* Writability is consumed by [tick] (connect completions, outbox
       flushes); readability by [drain]. *)
    t.transport.Transport.tick ~now:(now t);
    drain t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  ignore (Timers.fire_due t.timers ~now:(now t) : int)

let run ?until t =
  let deadline = Option.map (fun d -> now t +. d) until in
  let expired () =
    match deadline with None -> false | Some d -> now t >= d
  in
  while t.alive && (not t.stopping) && not (expired ()) do
    step t
  done

let close t =
  halt t;
  t.transport.Transport.close ()
