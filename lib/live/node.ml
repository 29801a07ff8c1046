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
   wire. Acks ride on reverse data: an ack owed to a peer goes out in
   front of the next data frame to it, in the same datagram or write, and
   alone only when no data goes back within the machine's ack delay.

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

   The process itself - pid, liveness, vector clock, history counter,
   receiver - is the same {!Gmp_platform.Shell} the simulator runs; this
   module is its live world. The clock is a monotonicized
   [Unix.gettimeofday] - absolute, so the logs of separately-spawned
   processes share one time axis and the orchestrator can merge them;
   monotonicized, because timer logic breaks if NTP steps the wall clock
   backwards. *)

open Gmp_base
open Gmp_core
module Shell = Gmp_platform.Shell
module Stats = Gmp_platform.Stats
module Netem = Gmp_net.Netem
module Endpoint = Gmp_net.Endpoint
module Rng = Gmp_sim.Rng
module Obs = Gmp_obs.Obs

module Arq = Gmp_net.Arq.Machine

type t = {
  shell : Wire.t Shell.t;
  transport : Transport.t;
  timers : Timers.t;
  arq : Arq.config;
  links : (string, Timers.entry) Arq.sender Pid.Tbl.t; (* encoded Data frames *)
  receivers : Timers.entry Arq.receiver Pid.Tbl.t;
  mutable blackholed : Pid.Set.t; (* fault injection: drop their frames *)
  mutable disconnected : Pid.Set.t; (* S1: permanent incoming disconnect *)
  mutable stopping : bool; (* orchestrator asked for clean shutdown *)
  now : unit -> float; (* monotonicized wall clock; shared with the transport *)
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
    { shell = Shell.create pid;
      transport;
      timers = Timers.create ();
      arq;
      links = Pid.Tbl.create 16;
      receivers = Pid.Tbl.create 16;
      blackholed = Pid.Set.empty;
      disconnected = Pid.Set.empty;
      stopping = false;
      now;
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

let pid t = Shell.pid t.shell
let endpoint t = t.transport.Transport.endpoint ()
let port t = Endpoint.port (endpoint t)
let stats t = t.stats
let alive t = Shell.alive t.shell
let stopping t = t.stopping
let clock t = Shell.clock t.shell
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

let find_or_add tbl k make =
  match Pid.Tbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = make () in
    Pid.Tbl.replace tbl k v;
    v

(* ---- frames out; the ARQ sender side onto the wire and the wheel ---- *)

let sendto t ~dst frames = t.transport.Transport.send ~dst frames
let ack_frame t ack_next =
  Codec.encode_frame (Codec.Ack { src = pid t; ack_next })
let send_ack t ~dst ack_next = sendto t ~dst [ ack_frame t ack_next ]

(* An Ack's fields are fixed-width: every ack frame has this length. *)
let ack_len =
  String.length
    (Codec.encode_frame (Codec.Ack { src = Pid.make 0; ack_next = 0 }))

let rec apply t ~dst l out =
  Arq.apply l out ~cancel:Timers.cancel
    ~transmit:(fun (e : _ Arq.entry) ->
      let data = Codec.with_chan_seq e.payload e.seq in
      let room_for_ack =
        String.length data <= t.transport.Transport.max_send - ack_len
      in
      sendto t ~dst
        (match Pid.Tbl.find_opt t.receivers dst with
        | None -> [ data ]
        | Some r when room_for_ack -> (
          match Arq.piggyback r ~cancel:Timers.cancel with
          | Some ack_next -> [ ack_frame t ack_next; data ]
          | None -> [ data ])
        | Some r ->
          (* The ack in front would overflow one send: it goes alone. *)
          Arq.flush r ~cancel:Timers.cancel ~ack:(send_ack t ~dst);
          [ data ]))
    ~schedule:(fun at ->
      Timers.schedule t.timers ~at (fun () ->
          if alive t then apply t ~dst l (Arq.timeout l ~now:(t.now ()))))

(* ---- the shell's world ---- *)

let transmit t ~dst ~category vc msg =
  (* Encoded once; each transmission stamps its [chan_seq]. A frame no
     single send can carry is refused before it enters the window, so
     nothing is queued for it. *)
  let frame =
    Codec.encode_frame (Codec.Data { src = pid t; chan_seq = 0; vc; msg })
  in
  if String.length frame > t.transport.Transport.max_send then
    invalid_arg "Node: message too large for the transport";
  Stats.record_sent t.stats ~category;
  let l = find_or_add t.links dst (fun () -> Arq.sender t.arq) in
  apply t ~dst l (Arq.send l ~now:(t.now ()) frame)

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

(* The world's side of halt: no retransmission outlives the process. *)
let halt_links t =
  Pid.Tbl.iter (fun dst l -> apply t ~dst l (Arq.teardown l)) t.links;
  Pid.Tbl.reset t.links

let platform t =
  Shell.node t.shell
    { Shell.now = t.now;
      schedule =
        (fun ~delay f -> Timers.schedule t.timers ~at:(t.now () +. delay) f);
      cancel = Timers.cancel;
      transmit = (fun ~dst ~category vc msg -> transmit t ~dst ~category vc msg);
      halt = (fun () -> halt_links t);
      disconnect_from = (fun ~from -> disconnect_from t ~from);
      log = t.log }

(* ---- ARQ receiver side / frame dispatch ---- *)

let handle_data t ~(origin : Transport.origin) ~src ~chan_seq ~sender_vc msg =
  (* Learn the peer's route from its traffic: joiners announce
     themselves, no static address book required. The transport keeps
     configured routes authoritative and only fills gaps. *)
  origin.learn src;
  let r = find_or_add t.receivers src (fun () -> Arq.receiver t.arq) in
  let ack = send_ack t ~dst:src in
  let deliver =
    Arq.receive r ~now:(t.now ()) ~seq:chan_seq ~ack ~schedule:(fun at ->
        Timers.schedule t.timers ~at (fun () ->
            (* A severed peer's receiver is gone; its ack is not owed. *)
            if alive t && not (Pid.Set.mem src t.disconnected) then
              Arq.flush r ~cancel:ignore ~ack))
  in
  if deliver then begin
    Stats.record_delivered t.stats ~category:(Wire.category_id msg);
    Shell.deliver t.shell ~src sender_vc msg
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
      alive t
      && (not (Pid.Set.mem src t.blackholed))
      && not (Pid.Set.mem src t.disconnected)
    then handle_data t ~origin ~src ~chan_seq ~sender_vc:vc msg
    else if alive t && Pid.Set.mem src t.blackholed then
      Stats.record_dropped t.stats ~category:(Wire.category_id msg)
  | Codec.Ack { src; ack_next } -> (
    match Pid.Tbl.find_opt t.links src with
    | Some l when alive t && not (Pid.Set.mem src t.blackholed) ->
      apply t ~dst:src l (Arq.ack l ~now:(t.now ()) ~next:ack_next)
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
      Rng.create (Netem.link_seed ~seed:t.netem_seed ~self:(pid t) ~peer:src))

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
               ~at:(t.now () +. d)
               (fun () -> if alive t then handle_frame t ~origin frame)
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
      match Codec.decode_frames raw (ingress t ~origin) with
      | Ok () -> ()
      | Error e ->
        t.log (Fmt.str "dropping undecodable frame: %a" Codec.pp_error e))

(* ---- poll loop ---- *)

let max_poll = 0.2
(* Upper bound on one select sleep: keeps the loop cheap to reason about;
   idle wakeups at 5 Hz are free. *)

let step t ~deadline =
  let n = t.now () in
  ignore (Timers.fire_due t.timers ~now:n : int);
  t.transport.Transport.tick ~now:n;
  let timeout =
    let bound acc = function
      | None -> acc
      | Some at -> Float.min acc (Float.max 0.0 (at -. n))
    in
    bound
      (bound
         (bound max_poll (Timers.next_deadline t.timers))
         (t.transport.Transport.next_deadline ()))
      (Some deadline)
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
    t.transport.Transport.tick ~now:(t.now ());
    drain t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  ignore (Timers.fire_due t.timers ~now:(t.now ()) : int)

let run ?until t =
  let deadline =
    match until with None -> Float.infinity | Some d -> t.now () +. d
  in
  while alive t && (not t.stopping) && t.now () < deadline do
    step t ~deadline
  done

let close t =
  (platform t).halt ();
  t.transport.Transport.close ()
