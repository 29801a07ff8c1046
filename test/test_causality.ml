(* Unit tests for Lamport clocks, vector clocks and consistent cuts. *)

open Gmp_base
open Gmp_causality

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p0 = Pid.make 0
let p1 = Pid.make 1
let p2 = Pid.make 2

(* ---- Lamport ---- *)

let test_lamport_tick () =
  let c = Lamport.zero in
  check int "zero" 0 (Lamport.to_int c);
  check int "tick" 1 (Lamport.to_int (Lamport.tick c))

let test_lamport_merge () =
  let a = Lamport.of_int 3 and b = Lamport.of_int 7 in
  check int "merge takes max + 1" 8 (Lamport.to_int (Lamport.merge a b));
  check int "merge is symmetric in value" 8 (Lamport.to_int (Lamport.merge b a))

(* ---- Vector_clock ---- *)

let test_vc_tick_get () =
  let vc = Vector_clock.empty in
  check int "absent is zero" 0 (Vector_clock.get vc p0);
  let vc = Vector_clock.tick vc p0 in
  let vc = Vector_clock.tick vc p0 in
  let vc = Vector_clock.tick vc p1 in
  check int "p0 ticked twice" 2 (Vector_clock.get vc p0);
  check int "p1 once" 1 (Vector_clock.get vc p1);
  check int "p2 zero" 0 (Vector_clock.get vc p2)

let test_vc_merge () =
  let a = Vector_clock.of_list [ (p0, 3); (p1, 1) ] in
  let b = Vector_clock.of_list [ (p0, 2); (p2, 5) ] in
  let m = Vector_clock.merge a b in
  check int "pointwise max p0" 3 (Vector_clock.get m p0);
  check int "p1" 1 (Vector_clock.get m p1);
  check int "p2" 5 (Vector_clock.get m p2)

let test_vc_orders () =
  let a = Vector_clock.of_list [ (p0, 1) ] in
  let b = Vector_clock.of_list [ (p0, 2); (p1, 1) ] in
  check bool "a < b" true (Vector_clock.lt a b);
  check bool "not b < a" false (Vector_clock.lt b a);
  check bool "a <= a" true (Vector_clock.leq a a);
  check bool "not a < a" false (Vector_clock.lt a a)

let test_vc_concurrent () =
  let a = Vector_clock.of_list [ (p0, 1) ] in
  let b = Vector_clock.of_list [ (p1, 1) ] in
  check bool "concurrent" true (Vector_clock.concurrent a b);
  check bool "not concurrent with itself" false (Vector_clock.concurrent a a)

let test_vc_zero_entries_ignored () =
  let a = Vector_clock.of_list [ (p0, 0); (p1, 2) ] in
  let b = Vector_clock.of_list [ (p1, 2) ] in
  check bool "explicit zero = absent" true (Vector_clock.equal a b)

(* ---- Cut ---- *)

(* Build a tiny two-process message exchange by hand:
   p0: e1 (send) -> p1: e2 (recv), e3 (send) -> p0: e4 (recv). *)
let sample_log () =
  let vc_e1 = Vector_clock.of_list [ (p0, 1) ] in
  let vc_e2 = Vector_clock.of_list [ (p0, 1); (p1, 1) ] in
  let vc_e3 = Vector_clock.of_list [ (p0, 1); (p1, 2) ] in
  let vc_e4 = Vector_clock.of_list [ (p0, 2); (p1, 2) ] in
  let e owner index vc name = Cut.{ owner; index; time = 0.0; vc; data = name } in
  let e1 = e p0 1 vc_e1 "e1"
  and e2 = e p1 1 vc_e2 "e2"
  and e3 = e p1 2 vc_e3 "e3"
  and e4 = e p0 2 vc_e4 "e4" in
  ([ e1; e2; e3; e4 ], e1, e2, e3, e4)

let test_cut_happened_before () =
  let _, e1, e2, _e3, e4 = sample_log () in
  check bool "e1 -> e2" true (Cut.happened_before e1 e2);
  check bool "e1 -> e4" true (Cut.happened_before e1 e4);
  check bool "e2 -> e4" true (Cut.happened_before e2 e4);
  check bool "not e4 -> e1" false (Cut.happened_before e4 e1);
  check bool "e1 not concurrent e2" false (Cut.concurrent e1 e2)

let test_cut_consistency () =
  let log, _, _, _, _ = sample_log () in
  (* {e1} is consistent; {e2} alone is not (needs e1). *)
  let c1 = Pid.Map.of_seq (List.to_seq [ (p0, 1) ]) in
  check bool "cut {e1} consistent" true (Cut.is_consistent log c1);
  let c2 = Pid.Map.of_seq (List.to_seq [ (p1, 1) ]) in
  check bool "cut {e2} inconsistent" false (Cut.is_consistent log c2);
  let c3 = Pid.Map.of_seq (List.to_seq [ (p0, 1); (p1, 2) ]) in
  check bool "cut {e1,e2,e3} consistent" true (Cut.is_consistent log c3);
  let c4 = Pid.Map.of_seq (List.to_seq [ (p0, 2); (p1, 1) ]) in
  check bool "cut {e1,e2,e4} inconsistent (e4 needs e3)" false
    (Cut.is_consistent log c4)

let test_cut_closure () =
  let log, _, _, _, e4 = sample_log () in
  let frontier = Cut.closure log [ e4 ] in
  check bool "closure of {e4} is consistent" true (Cut.is_consistent log frontier);
  check int "includes both of p0's events" 2 (Cut.frontier_get frontier p0);
  check int "includes both of p1's events" 2 (Cut.frontier_get frontier p1)

let test_cut_frontier_orders () =
  let small = Pid.Map.of_seq (List.to_seq [ (p0, 1) ]) in
  let big = Pid.Map.of_seq (List.to_seq [ (p0, 2); (p1, 1) ]) in
  check bool "small <= big" true (Cut.leq_frontier small big);
  check bool "small < big" true (Cut.lt_frontier small big);
  check bool "not big < small" false (Cut.lt_frontier big small)

let test_cut_empty_frontier () =
  let log, _, _, _, _ = sample_log () in
  check bool "empty cut consistent" true (Cut.is_consistent log Pid.Map.empty)

(* Runtime integration: vector clocks maintained by the process shell
   really characterize message causality, in both worlds. *)
let test_runtime_vc_integration () =
  Worlds.both ~seed:3 (fun w ->
      let a, b =
        match w.Worlds.spawn [ p0; p1 ] with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      let vc_at_receive = ref Vector_clock.empty in
      b.Gmp_platform.Platform.set_receiver (fun ~src:_ _ ->
          vc_at_receive := b.Gmp_platform.Platform.clock ());
      a.Gmp_platform.Platform.send ~dst:p1 ~category:(Gmp_net.Stats.intern "t")
        Gmp_core.Wire.Heartbeat;
      let vc_after_send = a.Gmp_platform.Platform.clock () in
      w.run (20.0 *. w.unit);
      check bool (w.name ^ ": send happened-before receive") true
        (Vector_clock.lt vc_after_send !vc_at_receive))

let suite =
  [ Alcotest.test_case "lamport: tick" `Quick test_lamport_tick;
    Alcotest.test_case "lamport: merge" `Quick test_lamport_merge;
    Alcotest.test_case "vc: tick and get" `Quick test_vc_tick_get;
    Alcotest.test_case "vc: merge" `Quick test_vc_merge;
    Alcotest.test_case "vc: orders" `Quick test_vc_orders;
    Alcotest.test_case "vc: concurrency" `Quick test_vc_concurrent;
    Alcotest.test_case "vc: zero entries" `Quick test_vc_zero_entries_ignored;
    Alcotest.test_case "cut: happened-before" `Quick test_cut_happened_before;
    Alcotest.test_case "cut: consistency" `Quick test_cut_consistency;
    Alcotest.test_case "cut: closure" `Quick test_cut_closure;
    Alcotest.test_case "cut: frontier orders" `Quick test_cut_frontier_orders;
    Alcotest.test_case "cut: empty frontier" `Quick test_cut_empty_frontier;
    Alcotest.test_case "runtime: vc integration" `Quick
      test_runtime_vc_integration ]
