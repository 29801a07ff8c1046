(* The shared fault vocabulary and its two consumers: Netem model
   sampling (pure, seeded), the sim's Lossy medium under reorder, and the
   live runtime end-to-end - two real UDP nodes exchanging frames through
   injected loss/duplication/reordering must still deliver FIFO
   exactly-once, the acked control plane must survive the loss it
   configures, and a three-member live group under sustained faults must
   produce a checker-clean trace. *)

open Gmp_base
open Gmp_core
open Gmp_net
open Gmp_live

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p ?(i = 0) id = Pid.make ~incarnation:i id

let counter node name =
  match Gmp_obs.Obs.Snapshot.find (Node.metrics node) name with
  | Some (Gmp_obs.Obs.Snapshot.Counter v) -> v
  | _ -> Alcotest.failf "counter %s missing" name

(* ---- the model itself ---- *)

let test_validation () =
  let rejects f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check bool "loss = 1 rejected" true (rejects (fun () -> Netem.make ~loss:1.0 ()));
  check bool "negative loss rejected" true
    (rejects (fun () -> Netem.make ~loss:(-0.1) ()));
  check bool "dup > 1 rejected" true
    (rejects (fun () -> Netem.make ~duplicate:1.5 ()));
  check bool "reorder > 1 rejected" true
    (rejects (fun () -> Netem.make ~reorder:1.01 ()));
  check bool "negative latency rejected" true
    (rejects (fun () -> Netem.of_latency (-0.5)));
  check bool "valid model accepted" true
    (not (rejects (fun () -> Netem.of_latency ~loss:0.5 ~jitter:0.01 0.02)))

let test_none_is_passthrough () =
  let rng = Gmp_sim.Rng.create 7 in
  for _ = 1 to 100 do
    match Netem.sample Netem.none rng with
    | Netem.Deliver { delay = 0.0; dup_delay = None; held = false } -> ()
    | _ -> Alcotest.fail "none must deliver immediately, once, in order"
  done;
  check bool "is_none" true (Netem.is_none Netem.none);
  check bool "lossy model is not none" false
    (Netem.is_none (Netem.make ~loss:0.1 ()))

let test_determinism () =
  (* Same model, same seed: identical verdict streams. *)
  let model = Netem.of_latency ~loss:0.3 ~duplicate:0.2 ~reorder:0.2 ~jitter:0.01 0.02 in
  let stream seed =
    let rng = Gmp_sim.Rng.create seed in
    List.init 500 (fun _ ->
        match Netem.sample model rng with
        | Netem.Drop -> "drop"
        | Netem.Deliver { delay; dup_delay; held } ->
          Printf.sprintf "%h/%s/%b" delay
            (match dup_delay with None -> "-" | Some d -> Printf.sprintf "%h" d)
            held)
  in
  check (Alcotest.list Alcotest.string) "replay" (stream 42) (stream 42);
  check bool "different seed, different stream" true (stream 42 <> stream 43)

let test_loss_statistics () =
  let model = Netem.make ~loss:0.3 () in
  let rng = Gmp_sim.Rng.create 11 in
  let drops = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Netem.sample model rng with
    | Netem.Drop -> incr drops
    | Netem.Deliver _ -> ()
  done;
  let rate = float_of_int !drops /. float_of_int n in
  check bool
    (Printf.sprintf "drop rate %.3f within [0.27,0.33]" rate)
    true
    (rate > 0.27 && rate < 0.33)

let test_reorder_holds_past_base () =
  (* A held copy must land strictly after any same-instant follower: with
     constant latency L the held delay is 3L (base + extra + mean), so any
     frame sent within 2L after it overtakes. *)
  let model = Netem.of_latency ~reorder:1.0 0.1 in
  let rng = Gmp_sim.Rng.create 5 in
  for _ = 1 to 50 do
    match Netem.sample model rng with
    | Netem.Deliver { delay; held = true; _ } ->
      check (Alcotest.float 1e-9) "held delay" 0.3 delay
    | _ -> Alcotest.fail "reorder=1 must hold every delivery"
  done

let test_link_seed_distinguishes_links () =
  let s self peer = Netem.link_seed ~seed:1 ~self ~peer in
  check bool "direction matters" true (s (p 0) (p 1) <> s (p 1) (p 0));
  check bool "peer matters" true (s (p 0) (p 1) <> s (p 0) (p 2));
  check bool "incarnation matters" true (s (p 0) (p 1) <> s (p 0) (p ~i:1 1));
  check bool "seed matters" true
    (Netem.link_seed ~seed:1 ~self:(p 0) ~peer:(p 1)
    <> Netem.link_seed ~seed:2 ~self:(p 0) ~peer:(p 1));
  check int "deterministic" (s (p 0) (p 1)) (s (p 0) (p 1))

(* ---- the sim medium under reorder ---- *)

let test_lossy_reorder_breaks_fifo () =
  (* With reorder on, a FIFO link may deliver out of order - the hostile
     medium the alternating-bit ARQ is provably unsound against. *)
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 3 in
  let link =
    Lossy.of_model ~engine ~rng
      (Netem.of_latency ~reorder:0.3 ~jitter:0.005 0.01)
  in
  let delivered = ref [] in
  Lossy.set_handler link (fun ~dst:_ ~src:_ n -> delivered := n :: !delivered);
  for n = 1 to 200 do
    Lossy.send link ~src:(p 0) ~dst:(p 1) n
  done;
  Gmp_sim.Engine.run engine;
  let order = List.rev !delivered in
  check int "everything arrives (no loss configured)" 200 (List.length order);
  check bool "but not in order" true (order <> List.sort compare order);
  check bool "reordered counter moved" true (Lossy.datagrams_reordered link > 0);
  check int "model accessor round-trips reorder" 200 (Lossy.datagrams_sent link)

(* ---- live: two real nodes through the weather ---- *)

let app n = Wire.App { app_ver = 0; payload = Codec.Blob (string_of_int n) }

let payload_of = function
  | Wire.App { payload = Codec.Blob s; _ } -> int_of_string s
  | m -> Alcotest.failf "unexpected message %a" Wire.pp m

let category = Gmp_platform.Stats.intern "test"

let test_live_fifo_exactly_once () =
  (* Both directions of a two-node exchange run through loss + duplication
     + reordering; go-back-N with backoff must still hand the receiver the
     exact sequence 0..n-1, once each, in order. *)
  let n = 40 in
  let weather = Netem.of_latency ~loss:0.2 ~duplicate:0.2 ~reorder:0.3 ~jitter:0.01 0.01 in
  let rpid = p 1 and spid = p 0 in
  let recv =
    Node.create ~rto:0.05 ~netem:weather ~netem_seed:7 ~pid:rpid
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let send =
    Node.create
      ~peers:[ (rpid, Node.endpoint recv) ]
      ~rto:0.05 ~netem:weather ~netem_seed:8 ~pid:spid
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let got = ref [] in
  let rplat = Node.platform recv in
  rplat.Gmp_platform.Platform.set_receiver (fun ~src:_ msg ->
      got := payload_of msg :: !got);
  let splat = Node.platform send in
  for i = 0 to n - 1 do
    splat.Gmp_platform.Platform.send ~dst:rpid ~category (app i)
  done;
  (* The sender parks itself once every frame is acked (which implies the
     receiver delivered all of them); the receiver is then told to stop
     over the acked control plane - through its own injected loss.
     [until] is only the deadman bound. *)
  splat.Gmp_platform.Platform.every ~interval:0.05 (fun () ->
      if Node.idle send then splat.Gmp_platform.Platform.halt ());
  let rd = Domain.spawn (fun () -> Node.run ~until:20.0 recv) in
  let sd = Domain.spawn (fun () -> Node.run ~until:20.0 send) in
  Domain.join sd;
  let ctrl = Ctrl.create () in
  check bool "shutdown acked through the loss" true
    (Ctrl.send ctrl ~attempts:100 ~interval:0.03 ~port:(Node.port recv)
       Codec.Shutdown);
  Ctrl.close ctrl;
  Domain.join rd;
  check (Alcotest.list int) "FIFO exactly-once through the weather"
    (List.init n Fun.id) (List.rev !got);
  check bool "loss actually happened" true (counter recv "netem.dropped" > 0);
  check bool "retransmission engaged" true (counter send "arq.retransmits" > 0);
  check bool "sender paid more than one round" true
    (counter send "arq.retransmit_rounds" > 0);
  check bool "duplicates were suppressed, not delivered" true
    (counter recv "arq.dups_suppressed" > 0 || counter recv "netem.duplicated" = 0);
  Node.close send;
  Node.close recv

let test_backoff_caps_retransmit_storm () =
  (* A sender facing a black hole: with exponential backoff the number of
     retransmit rounds in T seconds is O(log (T/rto)), not T/rto. *)
  let dead_port =
    (* Bind-and-release: a loopback port with nobody behind it. *)
    let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> assert false
    in
    Unix.close s;
    port
  in
  let send =
    Node.create
      ~peers:[ (p 9, Endpoint.loopback ~port:dead_port) ]
      ~rto:0.05 ~pid:(p 0)
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let splat = Node.platform send in
  splat.Gmp_platform.Platform.send ~dst:(p 9) ~category (app 0);
  Node.run ~until:3.0 send;
  let rounds = counter send "arq.retransmit_rounds" in
  (* Fixed rto would fire ~60 rounds in 3 s; the doubling schedule
     0.05,0.1,...,0.8 (cap 16x) admits at most ~10. *)
  check bool
    (Printf.sprintf "backoff engaged (%d rounds, want 3..12)" rounds)
    true
    (rounds >= 3 && rounds <= 12);
  Node.close send

let test_ctrl_survives_loss () =
  (* Satellite: a blackhole command must land despite 50% loss on the
     control plane itself - the ack+retry loop is what carries it. *)
  let node =
    Node.create
      ~netem:(Netem.make ~loss:0.5 ())
      ~netem_seed:1 ~pid:(p 0)
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let port = Node.port node in
  let d = Domain.spawn (fun () -> Node.run ~until:30.0 node) in
  let ctrl = Ctrl.create () in
  let sent cmd = Ctrl.send ctrl ~attempts:100 ~interval:0.03 ~port cmd in
  (* Several round-trips so the seeded loss provably bites at least one
     frame along the way. *)
  check bool "blackhole acked" true (sent (Codec.Blackhole (p 9)));
  check bool "unblackhole acked" true (sent (Codec.Unblackhole (p 9)));
  check bool "blackhole again acked" true (sent (Codec.Blackhole (p 8)));
  check bool "netem retune acked" true
    (sent
       (Codec.Set_netem
          { peer = None;
            n_loss = 0.5;
            n_latency = 0.0;
            n_jitter = 0.0;
            n_dup = 0.0;
            n_reorder = 0.0 }));
  check bool "shutdown acked" true (sent Codec.Shutdown);
  Domain.join d;
  Ctrl.close ctrl;
  check bool "command applied" true (Pid.Set.mem (p 8) (Node.blackholed node));
  check bool "earlier command undone" false
    (Pid.Set.mem (p 9) (Node.blackholed node));
  check bool "the control plane really was lossy" true
    (counter node "netem.dropped" > 0);
  Node.close node

let test_get_metrics_survives_loss () =
  (* The metrics scrape rides the same retry loop as commands: the
     Metrics reply's token match is the ack, so a snapshot must come back
     through 50% loss, parse as a registry snapshot, and carry the
     canonical counter names. *)
  let node =
    Node.create
      ~netem:(Netem.make ~loss:0.5 ())
      ~netem_seed:1 ~pid:(p 0)
      ~bind:(Endpoint.loopback ~port:0) ()
  in
  let port = Node.port node in
  let d = Domain.spawn (fun () -> Node.run ~until:30.0 node) in
  let ctrl = Ctrl.create () in
  let payload = Ctrl.query ctrl ~attempts:100 ~interval:0.03 ~port in
  check bool "snapshot came back through the loss" true (payload <> None);
  (match payload with
  | None -> ()
  | Some text -> (
    match Gmp_base.Json.of_string text with
    | Error m -> Alcotest.failf "scrape payload is not JSON: %s" m
    | Ok j -> (
      match Gmp_obs.Obs.Snapshot.of_json j with
      | Error m -> Alcotest.failf "scrape payload is not a snapshot: %s" m
      | Ok snap ->
        check bool "canonical counters present" true
          (match Gmp_obs.Obs.Snapshot.find snap "arq.data_frames_sent" with
          | Some (Gmp_obs.Obs.Snapshot.Counter _) -> true
          | _ -> false))));
  check bool "shutdown acked" true
    (Ctrl.send ctrl ~attempts:100 ~interval:0.03 ~port Codec.Shutdown);
  Domain.join d;
  Ctrl.close ctrl;
  Node.close node

(* ---- live: a three-member group through the weather ---- *)

let test_live_group_checker_clean () =
  (* Three real members over UDP with loss+dup+reorder on every link: the
     reassembled trace must satisfy the checker's safety properties and
     every member must have installed the initial view. *)
  let initial = Pid.group 3 in
  let weather = Netem.of_latency ~loss:0.1 ~duplicate:0.05 ~reorder:0.1 ~jitter:0.01 0.02 in
  let nodes =
    List.map
      (fun pid ->
        ( pid,
          Node.create ~rto:0.1 ~netem:weather ~netem_seed:(Pid.id pid) ~pid
            ~bind:(Endpoint.loopback ~port:0) () ))
      initial
  in
  List.iter
    (fun (pid, node) ->
      List.iter
        (fun (peer, peer_node) ->
          if not (Pid.equal pid peer) then
            Node.add_peer node peer (Node.endpoint peer_node))
        nodes)
    nodes;
  let config =
    { Config.default with heartbeat_interval = 0.3; heartbeat_timeout = 1.5 }
  in
  (* Each member is built in the domain that runs it: a member's clock
     ticks from its first trace event, and vector clocks are only
     meaningful in the domain whose registry interned their slots. *)
  let domains =
    List.map
      (fun (pid, node) ->
        ( pid,
          node,
          Domain.spawn (fun () ->
              let trace = Trace.create () in
              ignore
                (Member.create ~node:(Node.platform node) ~trace ~config
                   ~initial ()
                  : Member.t);
              Node.run ~until:4.0 node;
              trace) ))
      nodes
  in
  let members =
    List.map (fun (pid, node, d) -> (pid, node, Domain.join d)) domains
  in
  List.iter (fun (_, node, _) -> Node.close node) members;
  let trace =
    Trace_io.reassemble
      (List.map (fun (_, _, trace) -> Trace.events trace) members)
  in
  (match Checker.check_safety trace ~initial with
  | [] -> ()
  | vs ->
    Alcotest.failf "violations under injected faults: %a"
      Fmt.(list ~sep:(any "; ") Checker.pp_violation)
      vs);
  List.iter
    (fun (pid, _, trace) ->
      let installed =
        List.exists
          (fun (e : Trace.event) ->
            Pid.equal e.owner pid
            && match e.kind with Trace.Installed _ -> true | _ -> false)
          (Trace.events trace)
      in
      check bool
        (Printf.sprintf "%s installed a view" (Pid.to_string pid))
        true installed)
    members

let suite =
  [ Alcotest.test_case "model: validation" `Quick test_validation;
    Alcotest.test_case "model: none is pass-through" `Quick
      test_none_is_passthrough;
    Alcotest.test_case "model: seeded determinism" `Quick test_determinism;
    Alcotest.test_case "model: loss statistics" `Quick test_loss_statistics;
    Alcotest.test_case "model: reorder holds past base delay" `Quick
      test_reorder_holds_past_base;
    Alcotest.test_case "model: link seeds distinguish links" `Quick
      test_link_seed_distinguishes_links;
    Alcotest.test_case "lossy: reorder breaks FIFO" `Quick
      test_lossy_reorder_breaks_fifo;
    Alcotest.test_case "live: FIFO exactly-once under loss+dup+reorder" `Slow
      test_live_fifo_exactly_once;
    Alcotest.test_case "live: backoff caps the retransmit storm" `Slow
      test_backoff_caps_retransmit_storm;
    Alcotest.test_case "live: ctrl survives 50% loss" `Slow
      test_ctrl_survives_loss;
    Alcotest.test_case "live: metrics scrape survives 50% loss" `Slow
      test_get_metrics_survives_loss;
    Alcotest.test_case "live: 3-member group is checker-clean" `Slow
      test_live_group_checker_clean ]
