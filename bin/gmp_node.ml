(* gmp-node: one GMP member as a real OS process.

   Runs the same [Gmp_core.Member] state machine the simulator drives, but
   on [Gmp_live.Node]: a real transport (UDP datagrams or framed TCP
   streams, chosen by --transport), wall-clock timers, ARQ channels.
   Every trace event is flushed to the --log file as a JSON line the
   moment it happens, so the log is complete (up to one torn line) even
   if the orchestrator SIGKILLs this process mid-protocol.

   Exits 0 on a clean stop (orchestrator Shutdown, protocol quit, or
   --run-for expiry); argument errors exit 124 per cmdliner convention. *)

open Gmp_base
open Gmp_core
open Cmdliner
module Endpoint = Gmp_net.Endpoint
module Transport = Gmp_live.Transport

let pid_conv =
  let parse s =
    match Pid.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "bad pid %S (expected pN or pN#k)" s))
  in
  Arg.conv (parse, Pid.pp)

let peer_pp ppf (p, ep) = Fmt.pf ppf "%a:%a" Pid.pp p Endpoint.pp ep

let peer_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Gmp_live.Spec.parse_peer s)
  in
  Arg.conv (parse, peer_pp)

let peers_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Gmp_live.Spec.parse_peers s)
  in
  Arg.conv (parse, Fmt.list ~sep:(Fmt.any ",") peer_pp)

let endpoint_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Endpoint.parse_or_port s)
  in
  Arg.conv (parse, Endpoint.pp)

let transport_conv = Arg.enum [ ("udp", Transport.Udp); ("tcp", Transport.Tcp) ]

let self_term =
  Arg.(
    required
    & opt (some pid_conv) None
    & info [ "self" ] ~docv:"PID" ~doc:"This process's pid (e.g. p2, p5#1).")

let transport_term =
  Arg.(
    value & opt transport_conv Transport.Udp
    & info [ "transport" ] ~docv:"udp|tcp"
        ~doc:
          "Wire transport: UDP datagrams or length-prefixed TCP streams. \
           Every node of a cluster must agree.")

let port_term =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:
          "Port to bind on 127.0.0.1 (0 picks an ephemeral port). \
           Shorthand for --bind 127.0.0.1:PORT.")

let bind_term =
  Arg.(
    value
    & opt (some endpoint_conv) None
    & info [ "bind" ] ~docv:"HOST:PORT"
        ~doc:
          "Local endpoint to bind (overrides --port). Bind a non-loopback \
           address to span hosts.")

let peers_term =
  Arg.(
    value & opt_all peer_conv []
    & info [ "peer" ] ~docv:"PID:[HOST:]PORT"
        ~doc:
          "Address-book entry, repeatable; HOST defaults to 127.0.0.1. \
           Unknown peers are also learnt from their traffic, so a joiner \
           needs only its contacts.")

let peer_list_term =
  Arg.(
    value
    & opt (some peers_conv) None
    & info [ "peers" ] ~docv:"PID:[HOST:]PORT,..."
        ~doc:"Comma-separated address book; merged with --peer entries.")

let initial_term =
  Arg.(
    non_empty
    & opt (list pid_conv) []
    & info [ "initial" ] ~docv:"PIDS"
        ~doc:"The initial group membership (comma-separated pids).")

let joiner_term =
  Arg.(
    value & flag
    & info [ "joiner" ]
        ~doc:"Start with no view and request admission via --contacts.")

let contacts_term =
  Arg.(
    value
    & opt (list pid_conv) []
    & info [ "contacts" ] ~docv:"PIDS"
        ~doc:"Processes a --joiner asks for admission (round-robin).")

let hb_interval_term =
  Arg.(
    value & opt float 0.5
    & info [ "hb-interval" ] ~docv:"SECS" ~doc:"Heartbeat interval (F1).")

let hb_timeout_term =
  Arg.(
    value & opt float 2.5
    & info [ "hb-timeout" ] ~docv:"SECS"
        ~doc:"Silence before suspecting a peer; must exceed --hb-interval.")

let rto_term =
  Arg.(
    value & opt float 0.25
    & info [ "rto" ] ~docv:"SECS"
        ~doc:"Initial ARQ retransmission timeout (doubles per silent \
              round, resets on ack progress).")

let rto_max_term =
  Arg.(
    value & opt (some float) None
    & info [ "rto-max" ] ~docv:"SECS"
        ~doc:"Backoff cap for the ARQ timeout (default: 16 x --rto).")

let loss_term =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Netem: drop each incoming datagram with probability P.")

let latency_term =
  Arg.(
    value & opt float 0.0
    & info [ "latency" ] ~docv:"SECS"
        ~doc:"Netem: delay each surviving incoming datagram by this much.")

let jitter_term =
  Arg.(
    value & opt float 0.0
    & info [ "jitter" ] ~docv:"SECS"
        ~doc:"Netem: delay is --latency +/- up to this much (uniform).")

let dup_term =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Netem: deliver a second copy with probability P.")

let reorder_term =
  Arg.(
    value & opt float 0.0
    & info [ "reorder" ] ~docv:"P"
        ~doc:"Netem: hold a datagram back past its successors with \
              probability P (needs nonzero --latency or --jitter to bite).")

let netem_seed_term =
  Arg.(
    value & opt int 0
    & info [ "netem-seed" ] ~docv:"SEED"
        ~doc:"Seed for the per-link fault-injection RNG streams; the same \
              seed replays the same per-link fault pattern.")

let log_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "log" ] ~docv:"PATH"
        ~doc:"Event log (JSON lines, one per trace event, flushed per line).")

let metrics_interval_term =
  Arg.(
    value & opt float 5.0
    & info [ "metrics-interval" ] ~docv:"SECS"
        ~doc:
          "Period between metrics snapshot lines in the event log (0 \
           disables them). A final snapshot is always written at clean \
           shutdown; the periodic lines are what survives a SIGKILL.")

let run_for_term =
  Arg.(
    value & opt (some float) None
    & info [ "run-for" ] ~docv:"SECS"
        ~doc:"Exit after this long regardless (safety stop; default: run \
              until Shutdown or protocol exit).")

let join_retry_term =
  Arg.(
    value & opt float 2.0
    & info [ "join-retry" ] ~docv:"SECS"
        ~doc:"Interval between a joiner's admission retries.")

let verbose_term =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Debug chatter on stderr.")

let main self transport port bind peers peer_list initial joiner contacts
    hb_interval hb_timeout rto rto_max loss latency jitter dup reorder
    netem_seed log_path metrics_interval run_for join_retry verbose =
  let netem =
    try
      Ok
        (Gmp_net.Netem.of_latency ~loss ~duplicate:dup ~reorder ~jitter
           latency)
    with Invalid_argument m -> Error m
  in
  match netem with
  | Error m -> `Error (false, m)
  | Ok netem ->
  if joiner && contacts = [] then
    `Error (false, "--joiner requires --contacts")
  else if hb_timeout <= hb_interval then
    `Error (false, "--hb-timeout must exceed --hb-interval")
  else begin
    let config =
      { Config.default with
        heartbeat_interval = hb_interval;
        heartbeat_timeout = hb_timeout }
    in
    let log =
      if verbose then fun s ->
        Printf.eprintf "[%s] %s\n%!" (Pid.to_string self) s
      else fun _ -> ()
    in
    let bind =
      match bind with Some ep -> ep | None -> Endpoint.loopback ~port
    in
    let peers = peers @ Option.value peer_list ~default:[] in
    let node =
      Gmp_live.Node.create ~peers ~transport ~rto ?rto_max ~netem ~netem_seed
        ~log ~pid:self ~bind ()
    in
    let trace = Trace.create () in
    let writer = Gmp_live.Trace_io.attach trace ~path:log_path in
    let member =
      Member.create ~joiner
        ~node:(Gmp_live.Node.platform node)
        ~trace ~config ~initial ()
    in
    if joiner then
      Member.start_join ~retry_interval:join_retry member ~contacts;
    let platform = Gmp_live.Node.platform node in
    let write_metrics () =
      Gmp_live.Trace_io.write_metrics writer ~pid:self
        ~at:(platform.Gmp_platform.Platform.now ())
        (Gmp_live.Node.metrics node)
    in
    if metrics_interval > 0.0 then
      platform.Gmp_platform.Platform.every ~interval:metrics_interval
        write_metrics;
    log
      (Fmt.str "listening on %a (%s)" Endpoint.pp
         (Gmp_live.Node.endpoint node)
         (Gmp_live.Node.transport_kind node));
    Gmp_live.Node.run ?until:run_for node;
    log
      (Fmt.str "stopping: view v%d %a" (Member.version member)
         Fmt.(list ~sep:(any ",") Pid.pp)
         (View.members (Member.view member)));
    write_metrics ();
    Gmp_live.Trace_io.close writer;
    Gmp_live.Node.close node;
    `Ok 0
  end

let cmd =
  Cmd.v
    (Cmd.info "gmp-node" ~version:"1.0.0"
       ~doc:
         "One GMP group member as a real process (UDP datagrams or framed \
          TCP streams, wall-clock timers). Spawned in fleets by \
          gmp-cluster.")
    Term.(
      ret
        (const main $ self_term $ transport_term $ port_term $ bind_term
       $ peers_term $ peer_list_term $ initial_term $ joiner_term
       $ contacts_term $ hb_interval_term $ hb_timeout_term $ rto_term
       $ rto_max_term $ loss_term $ latency_term $ jitter_term $ dup_term
       $ reorder_term $ netem_seed_term $ log_term $ metrics_interval_term
       $ run_for_term $ join_retry_term $ verbose_term))

let () = exit (Cmd.eval' cmd)
