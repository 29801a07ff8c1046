(* Unit tests for the network substrate: delays, stats, FIFO channels,
   disconnection (S1), crashes, partitions. *)

open Gmp_base
open Gmp_net

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p0 = Pid.make 0
let p1 = Pid.make 1
let p2 = Pid.make 2

let make_net ?(delay = Delay.uniform ~lo:0.5 ~hi:1.5) () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 99 in
  let net = Network.create ~engine ~rng ~delay () in
  (engine, net)

(* ---- Delay ---- *)

let test_delay_constant () =
  let rng = Gmp_sim.Rng.create 1 in
  let d = Delay.constant 2.5 in
  for _ = 1 to 10 do
    check (Alcotest.float 0.0) "constant" 2.5 (Delay.sample d rng)
  done

let test_delay_uniform_range () =
  let rng = Gmp_sim.Rng.create 2 in
  let d = Delay.uniform ~lo:1.0 ~hi:3.0 in
  for _ = 1 to 1000 do
    let x = Delay.sample d rng in
    check bool "in range" true (x >= 1.0 && x < 3.0)
  done

let test_delay_mean () =
  check (Alcotest.float 1e-9) "uniform mean" 2.0
    (Delay.mean (Delay.uniform ~lo:1.0 ~hi:3.0));
  check (Alcotest.float 1e-9) "exp mean" 0.7
    (Delay.mean (Delay.exponential ~mean:0.7))

let test_delay_invalid () =
  check bool "negative constant" true
    (try ignore (Delay.constant (-1.0)); false with Invalid_argument _ -> true);
  check bool "bad range" true
    (try ignore (Delay.uniform ~lo:3.0 ~hi:1.0); false
     with Invalid_argument _ -> true)

(* ---- Stats ---- *)

let test_stats_counting () =
  let registry = Gmp_obs.Obs.create () in
  let s = Stats.create registry in
  Stats.record_sent s ~category:(Stats.intern "a");
  let cp = Stats.checkpoint s in
  Stats.record_sent s ~category:(Stats.intern "a");
  Stats.record_sent s ~category:(Stats.intern "b");
  Stats.record_delivered s ~category:(Stats.intern "a");
  Stats.record_dropped s ~category:(Stats.intern "b");
  check int "sent a" 2 (Stats.sent s ~category:"a");
  check int "sent b" 1 (Stats.sent s ~category:"b");
  check int "delivered a" 1 (Stats.delivered s ~category:"a");
  check int "dropped b" 1 (Stats.dropped s ~category:"b");
  check int "total sent" 3 (Stats.total_sent s);
  check int "excluding a" 1 (Stats.sent_excluding s ~categories:[ "a" ]);
  check (Alcotest.list Alcotest.string) "categories" [ "a"; "b" ]
    (Stats.categories s);
  check bool "tallies are registry counters" true
    (Gmp_obs.Obs.Snapshot.find (Gmp_obs.Obs.snapshot registry) "msg.b.dropped"
    = Some (Gmp_obs.Obs.Snapshot.Counter 1));
  Stats.restore s cp;
  check int "restore rewinds" 1 (Stats.total_sent s);
  check (Alcotest.list Alcotest.string) "a category created after the capture reads 0"
    [ "a" ] (Stats.categories s)

(* ---- Network ---- *)

let test_network_delivery () =
  let engine, net = make_net () in
  let received = ref [] in
  Network.set_handler net (fun ~dst ~src msg ->
      received := (dst, src, msg) :: !received);
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "test") "hello";
  Gmp_sim.Engine.run engine;
  check int "one delivery" 1 (List.length !received);
  let dst, src, msg = List.hd !received in
  check bool "fields" true
    (Pid.equal dst p1 && Pid.equal src p0 && msg = "hello")

let test_network_fifo () =
  (* High-variance delays would reorder; the FIFO rule must prevent it. *)
  let engine, net = make_net ~delay:(Delay.uniform ~lo:0.1 ~hi:10.0) () in
  let received = ref [] in
  Network.set_handler net (fun ~dst:_ ~src:_ msg -> received := msg :: !received);
  for i = 1 to 50 do
    Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "test") i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "in order" (List.init 50 (fun i -> i + 1))
    (List.rev !received)

let test_network_fifo_per_channel_only () =
  (* Different channels are not ordered relative to each other; each channel
     is. *)
  let engine, net = make_net ~delay:(Delay.uniform ~lo:0.1 ~hi:5.0) () in
  let from0 = ref [] and from2 = ref [] in
  Network.set_handler net (fun ~dst:_ ~src msg ->
      if Pid.equal src p0 then from0 := msg :: !from0
      else from2 := msg :: !from2);
  for i = 1 to 20 do
    Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") i;
    Network.send net ~src:p2 ~dst:p1 ~category:(Stats.intern "t") (100 + i)
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "channel 0 ordered" (List.init 20 (fun i -> i + 1))
    (List.rev !from0);
  check (Alcotest.list int) "channel 2 ordered"
    (List.init 20 (fun i -> 101 + i))
    (List.rev !from2)

let test_network_crash_dst () =
  let engine, net = make_net () in
  let received = ref 0 in
  Network.set_handler net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") ();
  Network.crash net p1;
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") ();
  Gmp_sim.Engine.run engine;
  (* Both messages vanish: the first was in flight when p1 crashed. *)
  check int "nothing delivered" 0 !received;
  check int "drops counted" 2 (Stats.dropped (Network.stats net) ~category:"t")

let test_network_crash_src () =
  let engine, net = make_net () in
  let received = ref 0 in
  Network.set_handler net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.crash net p0;
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") ();
  Gmp_sim.Engine.run engine;
  check int "crashed process cannot send" 0 !received;
  check int "not even counted as sent" 0
    (Stats.sent (Network.stats net) ~category:"t")

let test_network_s1_disconnect () =
  let engine, net = make_net () in
  let received = ref 0 in
  Network.set_handler net (fun ~dst:_ ~src:_ _ -> incr received);
  (* One message in flight, then p1 cuts its channel from p0: even the
     in-flight message must be discarded (S1 is checked on delivery). *)
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") ();
  Network.disconnect net ~at:p1 ~from:p0;
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") ();
  (* The reverse direction stays open. *)
  Network.send net ~src:p1 ~dst:p0 ~category:(Stats.intern "t") ();
  Gmp_sim.Engine.run engine;
  check int "only reverse direction" 1 !received;
  check bool "disconnected query" true (Network.is_disconnected net ~at:p1 ~from:p0);
  check bool "reverse not disconnected" false
    (Network.is_disconnected net ~at:p0 ~from:p1)

let test_network_partition_parks () =
  let engine, net = make_net () in
  let received = ref 0 in
  Network.set_handler net (fun ~dst:_ ~src:_ _ -> incr received);
  Network.partition net [ [ p0 ]; [ p1; p2 ] ];
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") ();
  Network.send net ~src:p1 ~dst:p2 ~category:(Stats.intern "t") ();
  Gmp_sim.Engine.run engine;
  check int "same-side delivered" 1 !received;
  check int "cross-side parked" 1 (Network.parked_count net);
  Network.heal net;
  Gmp_sim.Engine.run engine;
  check int "released on heal" 2 !received;
  check int "nothing parked" 0 (Network.parked_count net)

let test_network_partition_fifo_across_heal () =
  let engine, net = make_net ~delay:(Delay.uniform ~lo:0.1 ~hi:5.0) () in
  let received = ref [] in
  Network.set_handler net (fun ~dst:_ ~src:_ msg -> received := msg :: !received);
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") 1;
  Gmp_sim.Engine.run engine;
  Network.partition net [ [ p0 ]; [ p1 ] ];
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") 2;
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") 3;
  Gmp_sim.Engine.run engine;
  Network.heal net;
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "t") 4;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "order across partition and heal" [ 1; 2; 3; 4 ]
    (List.rev !received)

let test_network_reachability () =
  let _, net = make_net () in
  check bool "initially reachable" true (Network.reachable net p0 p1);
  Network.partition net [ [ p0 ]; [ p1 ] ];
  check bool "partitioned" false (Network.reachable net p0 p1);
  (* p2 was not listed: it falls in the implicit group 0, separate from
     both named groups. *)
  check bool "unlisted separate from group 1" false (Network.reachable net p2 p0);
  Network.heal net;
  check bool "healed" true (Network.reachable net p0 p1)

let test_network_self_send_rejected () =
  let _, net = make_net () in
  check bool "src = dst rejected" true
    (try
       Network.send net ~src:p0 ~dst:p0 ~category:(Stats.intern "t") ();
       false
     with Invalid_argument _ -> true)

let test_network_monitor () =
  let engine, net = make_net () in
  Network.set_handler net (fun ~dst:_ ~src:_ _ -> ());
  let seen = ref [] in
  Network.set_monitor net (fun r -> seen := Stats.name r.Network.record_category :: !seen);
  Network.send net ~src:p0 ~dst:p1 ~category:(Stats.intern "x") ();
  Network.send net ~src:p1 ~dst:p2 ~category:(Stats.intern "y") ();
  Gmp_sim.Engine.run engine;
  check (Alcotest.list Alcotest.string) "monitored" [ "x"; "y" ] (List.rev !seen)

let suite =
  [ Alcotest.test_case "delay: constant" `Quick test_delay_constant;
    Alcotest.test_case "delay: uniform range" `Quick test_delay_uniform_range;
    Alcotest.test_case "delay: means" `Quick test_delay_mean;
    Alcotest.test_case "delay: invalid" `Quick test_delay_invalid;
    Alcotest.test_case "stats: counting" `Quick test_stats_counting;
    Alcotest.test_case "network: delivery" `Quick test_network_delivery;
    Alcotest.test_case "network: FIFO under jitter" `Quick test_network_fifo;
    Alcotest.test_case "network: FIFO is per channel" `Quick
      test_network_fifo_per_channel_only;
    Alcotest.test_case "network: crash of destination" `Quick
      test_network_crash_dst;
    Alcotest.test_case "network: crash of source" `Quick test_network_crash_src;
    Alcotest.test_case "network: S1 disconnection" `Quick
      test_network_s1_disconnect;
    Alcotest.test_case "network: partition parks traffic" `Quick
      test_network_partition_parks;
    Alcotest.test_case "network: FIFO across heal" `Quick
      test_network_partition_fifo_across_heal;
    Alcotest.test_case "network: reachability" `Quick test_network_reachability;
    Alcotest.test_case "network: self-send rejected" `Quick
      test_network_self_send_rejected;
    Alcotest.test_case "network: send monitor" `Quick test_network_monitor ]
