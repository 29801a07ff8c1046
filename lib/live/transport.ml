(* The transport seam: how a live node's frames reach other hosts.

   [Node] used to own a UDP socket directly, which hard-wired the runtime
   to datagrams on loopback. This module abstracts the wire behind a
   record of closures (the same seam style as [Gmp_platform.Platform]):
   the node sends whole encoded frames to peers by pid and receives whole
   frames back with an [origin] it can reply to and learn routes from -
   everything else (sockets, address resolution, connection management,
   framing) lives behind the record, so datagram and stream transports are
   interchangeable under the same protocol stack, ARQ included.

   Two implementations:

   - UDP: one datagram socket; a frame is a datagram, byte-identical to
     the pre-seam wire format. The address book maps pid -> resolved
     sockaddr; unknown senders are learnt from their traffic.

   - TCP: a listening socket plus one lazily-connected, non-blocking
     stream per peer. Frames travel length-prefixed via the v2 codec's
     own self-delimiting header ([Framing] cuts them back out of the byte
     stream). Connections reconnect with exponential backoff, driven by
     the traffic itself: a send toward a disconnected peer starts the
     next attempt once the backoff allows, so the ARQ's retransmissions
     double as reconnection probes and no extra timer plumbing is needed.
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
  send : dst:Pid.t -> string -> unit;
  add_peer : Pid.t -> Endpoint.t -> unit;
  remove_peer : Pid.t -> unit;
  rfds : unit -> Unix.file_descr list;
  wfds : unit -> Unix.file_descr list;
  next_deadline : unit -> float option;
  tick : now:float -> unit;
  drain : (origin:origin -> string -> unit) -> unit;
  counters : unit -> (string * int) list;
  close : unit -> unit;
}

type kind = Udp | Tcp

let kind_name = function Udp -> "udp" | Tcp -> "tcp"

let kind_of_string = function
  | "udp" -> Some Udp
  | "tcp" -> Some Tcp
  | _ -> None

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

type udp_counters = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable send_errors : int; (* sendto failures swallowed (look like loss) *)
  mutable no_route_drops : int; (* sends toward a pid with no address *)
}

let udp ~bind ~log () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (resolve bind);
  Unix.set_nonblock sock;
  let bound = bound_endpoint sock ~bind in
  let peers : Unix.sockaddr Pid.Tbl.t = Pid.Tbl.create 16 in
  let ctr =
    { datagrams_sent = 0;
      datagrams_received = 0;
      send_errors = 0;
      no_route_drops = 0 }
  in
  let buf = Bytes.create (Codec.max_frame + 64) in
  let sendto_addr addr bytes =
    try
      ignore
        (Unix.sendto sock (Bytes.of_string bytes) 0 (String.length bytes) []
           addr
          : int);
      ctr.datagrams_sent <- ctr.datagrams_sent + 1
    with
    | Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNREFUSED), _, _) ->
      (* A full buffer or a dead peer's closed port: both look like loss
         to the ARQ, which is what retransmission exists for. *)
      ctr.send_errors <- ctr.send_errors + 1
  in
  let send ~dst bytes =
    match Pid.Tbl.find_opt peers dst with
    | None ->
      ctr.no_route_drops <- ctr.no_route_drops + 1;
      log (Printf.sprintf "no address for %s" (Pid.to_string dst))
    | Some addr -> sendto_addr addr bytes
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
        ctr.datagrams_received <- ctr.datagrams_received + 1;
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
    add_peer = (fun pid ep -> Pid.Tbl.replace peers pid (resolve ep));
    remove_peer = (fun pid -> Pid.Tbl.remove peers pid);
    rfds = (fun () -> [ sock ]);
    wfds = (fun () -> []);
    next_deadline = (fun () -> None);
    tick = (fun ~now:_ -> ());
    drain;
    counters =
      (fun () ->
        [ ("datagrams_sent", ctr.datagrams_sent);
          ("datagrams_received", ctr.datagrams_received);
          ("send_errors", ctr.send_errors);
          ("no_route_drops", ctr.no_route_drops) ]);
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

type conn = {
  fd : Unix.file_descr;
  mutable state : conn_state;
  decoder : Framing.t;
  outq : string Queue.t; (* whole frames awaiting write *)
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
  mutable connects : int; (* connection attempts started *)
  mutable reconnects : int; (* attempts beyond a peer's first *)
  mutable accepts : int;
  mutable conn_failures : int; (* died before establishing *)
  mutable conn_drops : int; (* died after establishing *)
  mutable half_open_drops : int; (* killed by the stalled-outbox check *)
  mutable stream_desyncs : int; (* framing-poisoned connections *)
  mutable frames_sent : int; (* frames fully written to the kernel *)
  mutable frames_received : int;
  mutable partial_reads : int; (* reads that ended inside a frame *)
  mutable outbox_dropped : int; (* frames dropped by the outbox cap *)
  mutable tcp_no_route_drops : int;
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
    if failed then st.tctr.conn_failures <- st.tctr.conn_failures + 1
    else st.tctr.conn_drops <- st.tctr.conn_drops + 1;
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
         let len = String.length head - conn.out_off in
         match
           Unix.write conn.fd
             (Bytes.unsafe_of_string head)
             conn.out_off len
         with
         | 0 -> continue := false
         | n ->
           progress := true;
           conn.out_bytes <- conn.out_bytes - n;
           if n = len then begin
             ignore (Queue.pop conn.outq : string);
             conn.out_off <- 0;
             st.tctr.frames_sent <- st.tctr.frames_sent + 1
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

let enqueue st conn bytes =
  if not conn.conn_closed then begin
    if conn.out_bytes + String.length bytes > st.cfg.max_outbox then
      (* The ARQ above owns reliability; a stalled connection must not
         buffer unboundedly on its behalf. *)
      st.tctr.outbox_dropped <- st.tctr.outbox_dropped + 1
    else begin
      Queue.add bytes conn.outq;
      conn.out_bytes <- conn.out_bytes + String.length bytes
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
      st.tctr.connects <- st.tctr.connects + 1;
      if r.attempts > 1 then st.tctr.reconnects <- st.tctr.reconnects + 1;
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

let tcp_send st ~dst bytes =
  match Pid.Tbl.find_opt st.routes dst with
  | None ->
    st.tctr.tcp_no_route_drops <- st.tctr.tcp_no_route_drops + 1;
    st.tlog (Printf.sprintf "no route to %s" (Pid.to_string dst))
  | Some r -> (
    match r.conn with
    | Some conn -> enqueue st conn bytes
    | None ->
      (* Lazy connect, paced by the backoff: the ARQ's retransmissions
         toward this peer are the reconnection probes. The frame rides
         along if an attempt starts now and is dropped otherwise - the
         retransmit that eventually succeeds carries the data. *)
      start_connect st dst r;
      (match r.conn with
      | Some conn -> enqueue st conn bytes
      | None ->
        if r.ep = None then begin
          st.tctr.tcp_no_route_drops <- st.tctr.tcp_no_route_drops + 1;
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
            st.tctr.half_open_drops <- st.tctr.half_open_drops + 1;
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
      st.tctr.accepts <- st.tctr.accepts + 1;
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
    { reply = (fun bytes -> if not conn.conn_closed then enqueue st conn bytes);
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
            st.tctr.partial_reads <- st.tctr.partial_reads + 1;
          List.iter
            (fun raw ->
              st.tctr.frames_received <- st.tctr.frames_received + 1;
              handle ~origin raw)
            frames;
          go ()
        | Error e ->
          (* Stream desync: no way to find the next boundary. *)
          st.tctr.stream_desyncs <- st.tctr.stream_desyncs + 1;
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

let tcp ~cfg ~bind ~now ~log () =
  (* EPIPE must surface as a Unix_error on write, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (resolve bind);
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let st =
    { listener;
      tcp_bound = bound_endpoint listener ~bind;
      routes = Pid.Tbl.create 16;
      conns = [];
      cfg;
      tctr =
        { connects = 0;
          reconnects = 0;
          accepts = 0;
          conn_failures = 0;
          conn_drops = 0;
          half_open_drops = 0;
          stream_desyncs = 0;
          frames_sent = 0;
          frames_received = 0;
          partial_reads = 0;
          outbox_dropped = 0;
          tcp_no_route_drops = 0 };
      tlog = log;
      tnow = now;
      read_buf = Bytes.create 65536 }
  in
  { kind = "tcp";
    endpoint = (fun () -> st.tcp_bound);
    send = (fun ~dst bytes -> tcp_send st ~dst bytes);
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
    counters =
      (fun () ->
        [ ("connects", st.tctr.connects);
          ("reconnects", st.tctr.reconnects);
          ("accepts", st.tctr.accepts);
          ("conn_failures", st.tctr.conn_failures);
          ("conn_drops", st.tctr.conn_drops);
          ("half_open_drops", st.tctr.half_open_drops);
          ("stream_desyncs", st.tctr.stream_desyncs);
          ("frames_sent", st.tctr.frames_sent);
          ("frames_received", st.tctr.frames_received);
          ("partial_reads", st.tctr.partial_reads);
          ("outbox_dropped", st.tctr.outbox_dropped);
          ("no_route_drops", st.tctr.tcp_no_route_drops) ]);
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

let make ?(tcp_config = default_tcp) ~kind ~bind ~now ~log () =
  match kind with
  | Udp -> udp ~bind ~log ()
  | Tcp -> tcp ~cfg:tcp_config ~bind ~now ~log ()
