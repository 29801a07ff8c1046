(* The transport seam: how a live node's frames reach other hosts.

   [Node] used to own a UDP socket directly, which hard-wired the runtime
   to datagrams on loopback. This module abstracts the wire behind a
   record of closures (the same seam style as [Gmp_platform.Platform]):
   the node sends whole encoded frames to peers by pid - several at once
   travel together, an ack in front of a data frame - and receives whole
   frames back with an [origin] it can reply to and learn routes from -
   everything else (sockets, address resolution, connection management,
   framing) lives behind the record, so datagram and stream transports are
   interchangeable under the same protocol stack, ARQ included.

   Two implementations:

   - UDP: one datagram socket; the frames of one send go out as one
     datagram, back to back, each byte-identical to the pre-seam wire
     format, and the receiving node splits them by the codec's header.
     The address book maps pid -> resolved sockaddr; unknown senders are
     learnt from their traffic.

   - TCP: a listening socket plus one lazily-connected, non-blocking
     stream per peer; the frames of one send go out in one write. Frames
     travel length-prefixed via the v2 codec's own self-delimiting header
     ([Framing] cuts them back out of the byte stream). Connections
     reconnect with exponential backoff, driven by the traffic itself: a
     send toward a disconnected peer starts the next attempt once the
     backoff allows, so the ARQ's retransmissions double as reconnection
     probes and no extra timer plumbing is needed.
     Half-open connections - established but silently dead, the failure
     mode streams add over datagrams - are detected by stalled progress:
     an outbox that stays unflushed past a timeout kills the connection.

   Frames queued on a connection that dies are dropped, deliberately: the
   ARQ above the seam owns reliability, and it retransmits anything
   unacked. The transport only promises best-effort frame delivery with
   boundaries preserved - exactly the contract UDP gave the node, which
   is what keeps the two implementations honestly swappable. *)

open Gmp_base
module Endpoint = Gmp_net.Endpoint
module Obs = Gmp_obs.Obs

type origin = {
  reply : string -> unit;
      (* send one frame back along the arrival path (UDP: the source
         address; TCP: the connection it came in on) *)
  learn : Pid.t -> unit;
      (* bind this origin as the route to [pid], if none is known *)
}

type t = {
  kind : string;
  endpoint : unit -> Endpoint.t;
  send : dst:Pid.t -> string list -> unit;
  max_send : int;
  add_peer : Pid.t -> Endpoint.t -> unit;
  remove_peer : Pid.t -> unit;
  rfds : unit -> Unix.file_descr list;
  wfds : unit -> Unix.file_descr list;
  next_deadline : unit -> float option;
  tick : now:float -> unit;
  drain : (origin:origin -> string -> unit) -> unit;
  close : unit -> unit;
}

(* The largest UDP payload over IPv4: 65,535 less the IP and UDP headers. *)
let max_udp_payload = 65_507

type kind = Udp | Tcp

let kind_name = function Udp -> "udp" | Tcp -> "tcp"

(* ---- name resolution ---- *)

let resolve ep =
  let host = Endpoint.host ep and port = Endpoint.port ep in
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> (
    match
      Unix.getaddrinfo host ""
        [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
    with
    | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
      Unix.ADDR_INET (addr, port)
    | _ | (exception Not_found) ->
      failwith (Printf.sprintf "Transport: cannot resolve host %S" host))

let bound_endpoint sock ~bind =
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> Endpoint.with_port bind port
  | _ -> bind

(* ---- UDP ---- *)

(* Every counter lives in the node's registry as [transport.<name>],
   created up front so a fresh transport reports all of them at 0. *)
let counter registry name = Obs.counter registry ("transport." ^ name)

type udp_counters = {
  datagrams_sent : Obs.counter;
  datagrams_received : Obs.counter;
  send_errors : Obs.counter; (* sendto failures swallowed (look like loss) *)
  no_route_drops : Obs.counter; (* sends toward a pid with no address *)
}

let udp ~registry ~bind ~log () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (resolve bind);
  Unix.set_nonblock sock;
  let bound = bound_endpoint sock ~bind in
  let peers : Unix.sockaddr Pid.Tbl.t = Pid.Tbl.create 16 in
  let counter = counter registry in
  let ctr =
    { datagrams_sent = counter "datagrams_sent";
      datagrams_received = counter "datagrams_received";
      send_errors = counter "send_errors";
      no_route_drops = counter "no_route_drops" }
  in
  let buf = Bytes.create (Codec.max_frame + 64) in
  let sendto_addr addr bytes =
    try
      ignore
        (Unix.sendto_substring sock bytes 0 (String.length bytes) [] addr
          : int);
      Obs.inc ctr.datagrams_sent
    with
    | Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNREFUSED), _, _) ->
      (* A full buffer or a dead peer's closed port: both look like loss
         to the ARQ, which is what retransmission exists for. *)
      Obs.inc ctr.send_errors
  in
  let send ~dst frames =
    match Pid.Tbl.find_opt peers dst with
    | None ->
      Obs.inc ~by:(List.length frames) ctr.no_route_drops;
      log (Printf.sprintf "no address for %s" (Pid.to_string dst))
    | Some addr ->
      sendto_addr addr
        (match frames with [ f ] -> f | fs -> String.concat "" fs)
  in
  let drain handle =
    let rec go () =
      match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        (* Linux surfaces a previous send's ICMP port-unreachable here. *)
        go ()
      | n, sender_addr ->
        Obs.inc ctr.datagrams_received;
        let raw = Bytes.sub_string buf 0 n in
        let origin =
          { reply = (fun bytes -> sendto_addr sender_addr bytes);
            learn =
              (fun pid ->
                (* Joiners announce themselves; a statically configured
                   address is never overridden by traffic. *)
                if not (Pid.Tbl.mem peers pid) then
                  Pid.Tbl.replace peers pid sender_addr) }
        in
        handle ~origin raw;
        go ()
    in
    go ()
  in
  { kind = "udp";
    endpoint = (fun () -> bound);
    send;
    max_send = max_udp_payload;
    add_peer = (fun pid ep -> Pid.Tbl.replace peers pid (resolve ep));
    remove_peer = (fun pid -> Pid.Tbl.remove peers pid);
    rfds = (fun () -> [ sock ]);
    wfds = (fun () -> []);
    next_deadline = (fun () -> None);
    tick = (fun ~now:_ -> ());
    drain;
    close = (fun () -> try Unix.close sock with Unix.Unix_error _ -> ()) }

(* ---- TCP ---- *)

type tcp_config = {
  connect_timeout : float; (* a Connecting fd older than this is dead *)
  half_open_timeout : float; (* established + outbox stalled this long = dead *)
  backoff_min : float; (* first reconnect delay after a failure *)
  backoff_max : float; (* backoff doubles per failure up to this cap *)
  max_outbox : int; (* queued bytes per connection; beyond = drop frame *)
  sndbuf : int option; (* SO_SNDBUF override (tests shrink it) *)
}

let default_tcp =
  { connect_timeout = 3.0;
    half_open_timeout = 5.0;
    backoff_min = 0.1;
    backoff_max = 2.0;
    max_outbox = 1 lsl 20;
    sndbuf = None }

type conn_state = Connecting of float (* started *) | Established

type write = { bytes : string; frames : int (* whole frames in [bytes] *) }

type conn = {
  fd : Unix.file_descr;
  mutable state : conn_state;
  decoder : Framing.t;
  outq : write Queue.t; (* whole frames awaiting write *)
  mutable out_off : int; (* bytes of the head frame already written *)
  mutable out_bytes : int;
  mutable last_progress : float; (* last successful read or write *)
  mutable conn_closed : bool;
  mutable peer : Pid.t option; (* learnt identity of the other end *)
}

type route = {
  mutable ep : Endpoint.t option; (* listen endpoint, if configured *)
  mutable conn : conn option;
  mutable attempts : int; (* connects started toward this peer *)
  mutable next_attempt : float;
  mutable backoff : float;
}

type tcp_counters = {
  connects : Obs.counter; (* connection attempts started *)
  reconnects : Obs.counter; (* attempts beyond a peer's first *)
  accepts : Obs.counter;
  conn_failures : Obs.counter; (* died before establishing *)
  conn_drops : Obs.counter; (* died after establishing *)
  half_open_drops : Obs.counter; (* killed by the stalled-outbox check *)
  stream_desyncs : Obs.counter; (* framing-poisoned connections *)
  frames_sent : Obs.counter; (* frames fully written to the kernel *)
  frames_received : Obs.counter;
  partial_reads : Obs.counter; (* reads that ended inside a frame *)
  outbox_dropped : Obs.counter; (* frames dropped by the outbox cap *)
  tcp_no_route_drops : Obs.counter;
}

type tcp_state = {
  listener : Unix.file_descr;
  tcp_bound : Endpoint.t;
  routes : route Pid.Tbl.t;
  mutable conns : conn list; (* every live connection, any direction *)
  cfg : tcp_config;
  tctr : tcp_counters;
  tlog : string -> unit;
  tnow : unit -> float;
  read_buf : Bytes.t;
}

let set_sndbuf cfg fd =
  match cfg.sndbuf with
  | None -> ()
  | Some n -> (
    try Unix.setsockopt_int fd Unix.SO_SNDBUF n with Unix.Unix_error _ -> ())

let route_for st pid =
  match Pid.Tbl.find_opt st.routes pid with
  | Some r -> r
  | None ->
    let r =
      { ep = None; conn = None; attempts = 0; next_attempt = 0.0; backoff = 0.0 }
    in
    Pid.Tbl.replace st.routes pid r;
    r

let describe_peer = function
  | Some p -> Pid.to_string p
  | None -> "<unidentified>"

(* Tear one connection down and detach it from its route. [failed] picks
   the counter: death before establishment is a connect failure, after it
   a drop. The route backs off before its next attempt. *)
let kill_conn st conn ~failed ~reason =
  if not conn.conn_closed then begin
    conn.conn_closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c -> c != conn) st.conns;
    Queue.clear conn.outq;
    conn.out_bytes <- 0;
    if failed then Obs.inc st.tctr.conn_failures
    else Obs.inc st.tctr.conn_drops;
    st.tlog
      (Printf.sprintf "tcp: connection to %s lost (%s)"
         (describe_peer conn.peer) reason);
    match conn.peer with
    | None -> ()
    | Some pid -> (
      match Pid.Tbl.find_opt st.routes pid with
      | Some ({ conn = Some c; _ } as r) when c == conn ->
        r.conn <- None;
        r.backoff <-
          (if r.backoff = 0.0 then st.cfg.backoff_min
           else Float.min (2.0 *. r.backoff) st.cfg.backoff_max);
        r.next_attempt <- st.tnow () +. r.backoff
      | _ -> ())
  end

(* Push queued frames into the kernel; partial writes leave the head
   frame's offset for next time. Any hard error kills the connection. *)
let flush st conn =
  if (not conn.conn_closed) && conn.state = Established then begin
    let progress = ref false in
    (try
       let continue = ref true in
       while !continue && not (Queue.is_empty conn.outq) do
         let head = Queue.peek conn.outq in
         let len = String.length head.bytes - conn.out_off in
         match
           Unix.write_substring conn.fd head.bytes conn.out_off len
         with
         | 0 -> continue := false
         | n ->
           progress := true;
           conn.out_bytes <- conn.out_bytes - n;
           if n = len then begin
             ignore (Queue.pop conn.outq : write);
             conn.out_off <- 0;
             Obs.inc ~by:head.frames st.tctr.frames_sent
           end
           else begin
             conn.out_off <- conn.out_off + n;
             continue := false
           end
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
           ->
           continue := false
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | exception Unix.Unix_error (e, _, _) ->
           kill_conn st conn ~failed:false
             ~reason:(Printf.sprintf "write: %s" (Unix.error_message e));
           continue := false
       done
     with _ -> ());
    if !progress then conn.last_progress <- st.tnow ()
  end

let enqueue st conn frames =
  if not conn.conn_closed then begin
    let w =
      { bytes = (match frames with [ f ] -> f | fs -> String.concat "" fs);
        frames = List.length frames }
    in
    if conn.out_bytes + String.length w.bytes > st.cfg.max_outbox then
      (* The ARQ above owns reliability; a stalled connection must not
         buffer unboundedly on its behalf. *)
      Obs.inc ~by:w.frames st.tctr.outbox_dropped
    else begin
      Queue.add w conn.outq;
      conn.out_bytes <- conn.out_bytes + String.length w.bytes
    end;
    flush st conn
  end

let start_connect st pid r =
  match r.ep with
  | None -> ()
  | Some ep ->
    let now = st.tnow () in
    if now >= r.next_attempt then begin
      r.attempts <- r.attempts + 1;
      Obs.inc st.tctr.connects;
      if r.attempts > 1 then Obs.inc st.tctr.reconnects;
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      set_sndbuf st.cfg fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      let conn =
        { fd;
          state = Connecting now;
          decoder = Framing.create ();
          outq = Queue.create ();
          out_off = 0;
          out_bytes = 0;
          last_progress = now;
          conn_closed = false;
          peer = Some pid }
      in
      r.conn <- Some conn;
      st.conns <- conn :: st.conns;
      match Unix.connect fd (resolve ep) with
      | () ->
        conn.state <- Established;
        conn.last_progress <- now
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
        ->
        () (* completion is observed in [tick] via getpeername *)
      | exception Unix.Unix_error (e, _, _) ->
        kill_conn st conn ~failed:true
          ~reason:(Printf.sprintf "connect: %s" (Unix.error_message e))
    end

let tcp_send st ~dst frames =
  match Pid.Tbl.find_opt st.routes dst with
  | None ->
    Obs.inc ~by:(List.length frames) st.tctr.tcp_no_route_drops;
    st.tlog (Printf.sprintf "no route to %s" (Pid.to_string dst))
  | Some r -> (
    match r.conn with
    | Some conn -> enqueue st conn frames
    | None ->
      (* Lazy connect, paced by the backoff: the ARQ's retransmissions
         toward this peer are the reconnection probes. The frame rides
         along if an attempt starts now and is dropped otherwise - the
         retransmit that eventually succeeds carries the data. *)
      start_connect st dst r;
      (match r.conn with
      | Some conn -> enqueue st conn frames
      | None ->
        if r.ep = None then begin
          Obs.inc ~by:(List.length frames) st.tctr.tcp_no_route_drops;
          st.tlog (Printf.sprintf "no endpoint for %s" (Pid.to_string dst))
        end))

(* Connect completion on a non-blocking socket: getpeername answers once
   the handshake is done, ENOTCONN while it is still in flight (the
   pending error, if any, is then fetched explicitly). *)
let check_connecting st conn ~now ~started =
  match Unix.getpeername conn.fd with
  | _ ->
    conn.state <- Established;
    conn.last_progress <- now;
    (match conn.peer with
    | Some pid -> (
      match Pid.Tbl.find_opt st.routes pid with
      | Some r ->
        r.backoff <- 0.0;
        r.next_attempt <- 0.0
      | None -> ())
    | None -> ());
    flush st conn
  | exception Unix.Unix_error (Unix.ENOTCONN, _, _) -> (
    match Unix.getsockopt_error conn.fd with
    | Some e ->
      kill_conn st conn ~failed:true
        ~reason:(Printf.sprintf "connect: %s" (Unix.error_message e))
    | None ->
      if now -. started > st.cfg.connect_timeout then
        kill_conn st conn ~failed:true ~reason:"connect timeout")
  | exception Unix.Unix_error (e, _, _) ->
    kill_conn st conn ~failed:true
      ~reason:(Printf.sprintf "connect: %s" (Unix.error_message e))

let tcp_tick st ~now =
  List.iter
    (fun conn ->
      if not conn.conn_closed then
        match conn.state with
        | Connecting started -> check_connecting st conn ~now ~started
        | Established ->
          flush st conn;
          if
            (not (Queue.is_empty conn.outq))
            && now -. conn.last_progress > st.cfg.half_open_timeout
          then begin
            (* Established but not draining: the peer's host vanished
               without a FIN/RST (or stopped reading). Kernel-level TCP
               would keep trying for minutes; the failure detector above
               cannot wait that long. *)
            Obs.inc st.tctr.half_open_drops;
            kill_conn st conn ~failed:false ~reason:"half-open (outbox stalled)"
          end)
    (* kill_conn replaces st.conns with a fresh list, so iterating the
       list as it was on entry is safe *)
    st.conns

let tcp_next_deadline st =
  List.fold_left
    (fun acc conn ->
      let candidate =
        match conn.state with
        | Connecting started -> Some (started +. st.cfg.connect_timeout)
        | Established ->
          if Queue.is_empty conn.outq then None
          else Some (conn.last_progress +. st.cfg.half_open_timeout)
      in
      match (acc, candidate) with
      | None, c -> c
      | a, None -> a
      | Some a, Some c -> Some (Float.min a c))
    None st.conns

let accept_loop st =
  let rec go () =
    match Unix.accept st.listener with
    | fd, _addr ->
      Unix.set_nonblock fd;
      set_sndbuf st.cfg fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      Obs.inc st.tctr.accepts;
      let conn =
        { fd;
          state = Established;
          decoder = Framing.create ();
          outq = Queue.create ();
          out_off = 0;
          out_bytes = 0;
          last_progress = st.tnow ();
          conn_closed = false;
          peer = None }
      in
      st.conns <- conn :: st.conns;
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let read_conn st conn handle =
  let origin =
    { reply =
        (fun bytes -> if not conn.conn_closed then enqueue st conn [ bytes ]);
      learn =
        (fun pid ->
          (* [learn] may run after the frame's connection died (a netem
             delay holds the frame past [kill_conn]); a closed conn must
             not become a route, or its fd number - possibly reused by a
             new socket - would be closed a second time later. *)
          if not conn.conn_closed then begin
            if conn.peer = None then conn.peer <- Some pid;
            let r = route_for st pid in
            (* Adopt the inbound connection as the route if none exists:
               replies to a joiner ride the stream it opened. A configured
               endpoint (if any) is kept for reconnection later. *)
            match r.conn with
            | None ->
              r.conn <- Some conn;
              r.backoff <- 0.0;
              r.next_attempt <- 0.0
            | Some _ -> ()
          end) }
  in
  let rec go () =
    if conn.conn_closed then ()
    else
      match Unix.read conn.fd st.read_buf 0 (Bytes.length st.read_buf) with
      | 0 -> kill_conn st conn ~failed:false ~reason:"EOF"
      | n -> (
        conn.last_progress <- st.tnow ();
        match Framing.feed conn.decoder st.read_buf ~off:0 ~len:n with
        | Ok frames ->
          if Framing.pending conn.decoder > 0 then
            Obs.inc st.tctr.partial_reads;
          List.iter
            (fun raw ->
              Obs.inc st.tctr.frames_received;
              handle ~origin raw)
            frames;
          go ()
        | Error e ->
          (* Stream desync: no way to find the next boundary. *)
          Obs.inc st.tctr.stream_desyncs;
          kill_conn st conn ~failed:false
            ~reason:(Fmt.str "stream desync: %a" Codec.pp_error e))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, _, _) ->
        kill_conn st conn ~failed:false
          ~reason:(Printf.sprintf "read: %s" (Unix.error_message e))
  in
  go ()

let tcp_drain st handle =
  accept_loop st;
  List.iter
    (fun conn ->
      if (not conn.conn_closed) && conn.state = Established then
        read_conn st conn handle)
    st.conns

let tcp ~registry ~cfg ~bind ~now ~log () =
  (* EPIPE must surface as a Unix_error on write, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (resolve bind);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let counter = counter registry in
  let st =
    { listener;
      tcp_bound = bound_endpoint listener ~bind;
      routes = Pid.Tbl.create 16;
      conns = [];
      cfg;
      tctr =
        { connects = counter "connects";
          reconnects = counter "reconnects";
          accepts = counter "accepts";
          conn_failures = counter "conn_failures";
          conn_drops = counter "conn_drops";
          half_open_drops = counter "half_open_drops";
          stream_desyncs = counter "stream_desyncs";
          frames_sent = counter "frames_sent";
          frames_received = counter "frames_received";
          partial_reads = counter "partial_reads";
          outbox_dropped = counter "outbox_dropped";
          tcp_no_route_drops = counter "no_route_drops" };
      tlog = log;
      tnow = now;
      read_buf = Bytes.create 65536 }
  in
  { kind = "tcp";
    endpoint = (fun () -> st.tcp_bound);
    send = (fun ~dst frames -> tcp_send st ~dst frames);
    max_send = max_int;
    add_peer =
      (fun pid ep ->
        let r = route_for st pid in
        r.ep <- Some ep);
    remove_peer =
      (fun pid ->
        (match Pid.Tbl.find_opt st.routes pid with
        | Some { conn = Some conn; _ } when not conn.conn_closed ->
          (* Graceful teardown of an excluded peer's stream: no counter,
             no backoff - the route itself is forgotten. *)
          conn.conn_closed <- true;
          (try Unix.close conn.fd with Unix.Unix_error _ -> ());
          st.conns <- List.filter (fun c -> c != conn) st.conns
        | _ -> ());
        Pid.Tbl.remove st.routes pid);
    rfds = (fun () -> st.listener :: List.map (fun c -> c.fd) st.conns);
    wfds =
      (fun () ->
        List.filter_map
          (fun c ->
            match c.state with
            | Connecting _ -> Some c.fd
            | Established -> if Queue.is_empty c.outq then None else Some c.fd)
          st.conns);
    next_deadline = (fun () -> tcp_next_deadline st);
    tick = (fun ~now -> tcp_tick st ~now);
    drain = (fun handle -> tcp_drain st handle);
    close =
      (fun () ->
        (* Best-effort final flush, then release everything. *)
        List.iter (fun c -> flush st c) st.conns;
        List.iter
          (fun c ->
            c.conn_closed <- true;
            try Unix.close c.fd with Unix.Unix_error _ -> ())
          st.conns;
        st.conns <- [];
        try Unix.close st.listener with Unix.Unix_error _ -> ()) }

let make ?(tcp_config = default_tcp) ~kind ~registry ~bind ~now ~log () =
  match kind with
  | Udp -> udp ~registry ~bind ~log ()
  | Tcp -> tcp ~registry ~cfg:tcp_config ~bind ~now ~log ()
