(* Unit tests for the process runtime: spawning, messaging, timers, crash
   semantics, broadcast indivisibility. The clock, timer and broadcast
   rules belong to the process shell, so those cases run in both worlds:
   the simulator and live nodes on UDP loopback. *)

open Gmp_base
module Runtime = Gmp_runtime.Runtime
module Platform = Gmp_platform.Platform

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i
let category = Gmp_net.Stats.intern "t"
let msg = Gmp_core.Wire.Heartbeat

let spawn rt i = Runtime.spawn rt (p i)

let test_spawn_and_send () =
  let rt = Runtime.create ~seed:1 () in
  let a = spawn rt 0 in
  let b = spawn rt 1 in
  let inbox = ref [] in
  b.Platform.set_receiver (fun ~src msg -> inbox := (src, msg) :: !inbox);
  a.Platform.send ~dst:(p 1) ~category "hello";
  Runtime.run rt;
  (match !inbox with
   | [ (src, "hello") ] -> check bool "src" true (Pid.equal src (p 0))
   | _ -> Alcotest.fail "expected one message");
  check bool "duplicate spawn rejected" true
    (try ignore (Runtime.spawn rt (p 0)); false with Invalid_argument _ -> true)

let test_crash_semantics () =
  let rt = Runtime.create ~seed:2 () in
  let a = spawn rt 0 in
  let b = spawn rt 1 in
  let received = ref 0 in
  b.Platform.set_receiver (fun ~src:_ _ -> incr received);
  (* In-flight message vanishes when the destination crashes. *)
  a.Platform.send ~dst:(p 1) ~category ();
  b.Platform.halt ();
  Runtime.run rt;
  check int "nothing delivered" 0 !received;
  check bool "not alive" false (b.Platform.alive ());
  (* A crashed process cannot send. *)
  a.Platform.halt ();
  a.Platform.send ~dst:(p 1) ~category ();
  Runtime.run rt;
  check int "no sends from the dead" 0
    (Gmp_net.Stats.sent (Runtime.stats rt) ~category:"t" - 1)

let test_timers () =
  let rt = Runtime.create ~seed:3 () in
  let a = spawn rt 0 in
  let fired = ref 0 in
  let timer = a.Platform.set_timer ~delay:5.0 (fun () -> incr fired) in
  ignore (a.Platform.set_timer ~delay:6.0 (fun () -> incr fired) : Platform.timer);
  timer.Platform.cancel ();
  Runtime.run rt;
  check int "one cancelled, one fired" 1 !fired

(* A world stops polling a halted node, so a timer due after the halt
   would never fire anyway. These cases put the dead node's callback in
   the same firing batch as the halt, so only the shell's alive guard can
   suppress it. *)

let test_timer_dies_with_node () =
  Worlds.both ~seed:4 (fun w ->
      let a = List.hd (w.Worlds.spawn [ p 0 ]) in
      let fired = ref 0 in
      let set f = ignore (a.Platform.set_timer ~delay:0.0 f : Platform.timer) in
      set (fun () -> a.Platform.halt ());
      set (fun () -> incr fired);
      w.run (10.0 *. w.unit);
      check bool (w.name ^ ": halted") false (a.Platform.alive ());
      check int (w.name ^ ": timer suppressed after crash") 0 !fired)

let test_every_stops_on_crash () =
  Worlds.both ~seed:5 (fun w ->
      let a = List.hd (w.Worlds.spawn [ p 0 ]) in
      (* Two loops armed together tick in one batch each round, the
         halting loop first. *)
      let halting = ref 0 and other = ref 0 in
      a.Platform.every ~interval:w.unit (fun () ->
          incr halting;
          if !halting = 3 then a.Platform.halt ());
      a.Platform.every ~interval:w.unit (fun () -> incr other);
      w.run (100.0 *. w.unit);
      check int (w.name ^ ": stopped at the crash") 3 !halting;
      check int (w.name ^ ": same-round tick suppressed") 2 !other)

let test_broadcast_excludes_self () =
  Worlds.both ~seed:6 (fun w ->
      let received = ref [] in
      let nodes = w.Worlds.spawn [ p 0; p 1; p 2; p 3 ] in
      List.iteri
        (fun i node ->
          node.Platform.set_receiver (fun ~src:_ _ -> received := i :: !received))
        nodes;
      (List.hd nodes).Platform.broadcast ~dsts:[ p 0; p 1; p 2; p 3 ] ~category msg;
      w.run (20.0 *. w.unit);
      check (Alcotest.list int) (w.name ^ ": everyone but self") [ 1; 2; 3 ]
        (List.sort Int.compare !received))

let test_local_event_advances_clock () =
  Worlds.both ~seed:7 (fun w ->
      let a = List.hd (w.Worlds.spawn [ p 0 ]) in
      let i1, vc1 = a.Platform.local_event () in
      let i2, vc2 = a.Platform.local_event () in
      check int (w.name ^ ": indices advance") (i1 + 1) i2;
      check bool (w.name ^ ": clock advances") true
        (Gmp_causality.Vector_clock.lt vc1 vc2))

let test_now_tracks_engine () =
  let rt = Runtime.create ~seed:8 () in
  let a = spawn rt 0 in
  let seen = ref 0.0 in
  ignore
    (a.Platform.set_timer ~delay:7.5 (fun () -> seen := a.Platform.now ())
      : Platform.timer);
  Runtime.run rt;
  check (Alcotest.float 1e-9) "node_now" 7.5 !seen

let suite =
  [ Alcotest.test_case "spawn and send" `Quick test_spawn_and_send;
    Alcotest.test_case "crash semantics" `Quick test_crash_semantics;
    Alcotest.test_case "timers and cancellation" `Quick test_timers;
    Alcotest.test_case "timer dies with node" `Quick test_timer_dies_with_node;
    Alcotest.test_case "every stops on crash" `Quick test_every_stops_on_crash;
    Alcotest.test_case "broadcast excludes self" `Quick
      test_broadcast_excludes_self;
    Alcotest.test_case "local events advance the clock" `Quick
      test_local_event_advances_clock;
    Alcotest.test_case "node_now tracks the engine" `Quick test_now_tracks_engine ]
