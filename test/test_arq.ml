(* Tests for the lossy datagram layer and the ARQ state machine that
   implements the paper's reliable-FIFO assumption on top of it: the
   alternating-bit instance through [Arq]'s own driver, and the go-back-N
   instance the live node ships through a minimal driver over the same
   medium and engine. *)

open Gmp_base
open Gmp_net

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p0 = Pid.make 0
let p1 = Pid.make 1
let p2 = Pid.make 2

let setup ?(loss = 0.3) ?(duplicate = 0.1) ?(seed = 7) () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create seed in
  (* Bounded delay spread and a generous rto: the alternating bit is sound
     (no datagram survives across two bit flips). *)
  let delay = Delay.uniform ~lo:0.5 ~hi:1.5 in
  let arq = Arq.create ~loss ~duplicate ~rto:5.0 ~engine ~rng ~delay () in
  (engine, arq)

(* ---- Lossy ---- *)

let test_lossy_drops () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 3 in
  let lossy =
    Lossy.create ~loss:0.5 ~engine ~rng ~delay:(Delay.constant 1.0) ()
  in
  let received = ref 0 in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ () -> incr received);
  for _ = 1 to 1000 do
    Lossy.send lossy ~src:p0 ~dst:p1 ()
  done;
  Gmp_sim.Engine.run engine;
  check bool "roughly half lost" true (!received > 350 && !received < 650);
  check int "accounting adds up" 1000
    (!received + Lossy.datagrams_lost lossy)

let test_lossy_duplicates () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 4 in
  let lossy =
    Lossy.create ~duplicate:1.0 ~engine ~rng ~delay:(Delay.constant 1.0) ()
  in
  let received = ref 0 in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ () -> incr received);
  for _ = 1 to 100 do
    Lossy.send lossy ~src:p0 ~dst:p1 ()
  done;
  Gmp_sim.Engine.run engine;
  check int "everything doubled" 200 !received

let test_lossy_reorders () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 5 in
  let lossy =
    Lossy.create ~fifo:false ~engine ~rng
      ~delay:(Delay.uniform ~lo:0.1 ~hi:10.0)
      ()
  in
  let received = ref [] in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ i -> received := i :: !received);
  for i = 1 to 50 do
    Lossy.send lossy ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check bool "no ordering with ~fifo:false" true
    (List.rev !received <> List.init 50 (fun i -> i + 1))

let test_lossy_fifo_by_default () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create 6 in
  let lossy =
    Lossy.create ~engine ~rng ~delay:(Delay.uniform ~lo:0.1 ~hi:10.0) ()
  in
  let received = ref [] in
  Lossy.set_handler lossy (fun ~dst:_ ~src:_ i -> received := i :: !received);
  for i = 1 to 50 do
    Lossy.send lossy ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "in order on a physical link"
    (List.init 50 (fun i -> i + 1))
    (List.rev !received)

(* ---- Arq ---- *)

let test_arq_reliable_fifo_under_loss () =
  let engine, arq = setup ~loss:0.4 ~duplicate:0.2 () in
  let received = ref [] in
  Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
  let n = 100 in
  for i = 1 to n do
    Arq.send arq ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "exactly once, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !received);
  check bool "loss actually happened" true (Arq.datagrams_lost arq > 0);
  check bool "retransmissions happened" true (Arq.retransmissions arq > 0)

let test_arq_no_loss_no_retransmit () =
  let engine, arq = setup ~loss:0.0 ~duplicate:0.0 () in
  let received = ref 0 in
  Arq.set_handler arq (fun ~dst:_ ~src:_ _ -> incr received);
  for i = 1 to 20 do
    Arq.send arq ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check int "all delivered" 20 !received;
  check int "no retransmissions on a clean link" 0 (Arq.retransmissions arq)

let test_arq_channels_independent () =
  let engine, arq = setup ~loss:0.3 () in
  let to1 = ref [] and to2 = ref [] and back = ref [] in
  Arq.set_handler arq (fun ~dst ~src:_ i ->
      if Pid.equal dst p1 then to1 := i :: !to1
      else if Pid.equal dst p2 then to2 := i :: !to2
      else back := i :: !back);
  for i = 1 to 30 do
    Arq.send arq ~src:p0 ~dst:p1 i;
    Arq.send arq ~src:p0 ~dst:p2 (100 + i);
    Arq.send arq ~src:p1 ~dst:p0 (200 + i)
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "p0->p1 ordered" (List.init 30 (fun i -> i + 1))
    (List.rev !to1);
  check (Alcotest.list int) "p0->p2 ordered" (List.init 30 (fun i -> 101 + i))
    (List.rev !to2);
  check (Alcotest.list int) "p1->p0 ordered" (List.init 30 (fun i -> 201 + i))
    (List.rev !back)

let test_arq_heavy_loss_eventually_delivers () =
  let engine, arq = setup ~loss:0.8 ~duplicate:0.0 ~seed:11 () in
  let received = ref [] in
  Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
  for i = 1 to 10 do
    Arq.send arq ~src:p0 ~dst:p1 i
  done;
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "survives 80% loss" (List.init 10 (fun i -> i + 1))
    (List.rev !received)

let test_arq_unsound_over_reordering_links () =
  (* The classic negative result: the 1-bit protocol is NOT correct over
     arbitrarily reordering links - a stale frame or ack can cross two bit
     flips. Sweep seeds until an anomaly (wrong order, loss or duplicate at
     the reliable layer) shows up. *)
  let anomaly = ref false in
  let seed = ref 0 in
  while (not !anomaly) && !seed < 500 do
    incr seed;
    let engine = Gmp_sim.Engine.create () in
    let rng = Gmp_sim.Rng.create !seed in
    let delay = Delay.uniform ~lo:0.5 ~hi:1.5 in
    let arq =
      Arq.create ~fifo:false ~loss:0.2 ~duplicate:0.2 ~rto:5.0 ~engine ~rng
        ~delay ()
    in
    let received = ref [] in
    Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
    for i = 1 to 40 do
      Arq.send arq ~src:p0 ~dst:p1 i
    done;
    Gmp_sim.Engine.run ~max_steps:1_000_000 engine;
    if List.rev !received <> List.init 40 (fun i -> i + 1) then anomaly := true
  done;
  check bool "ABP breaks over reordering links (within 500 seeds)" true !anomaly

let prop_arq_exactly_once_in_order =
  QCheck.Test.make ~name:"arq: exactly-once in-order for any loss/seed"
    ~count:60
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 70))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100.0 in
      let engine, arq = setup ~loss ~duplicate:0.15 ~seed () in
      let received = ref [] in
      Arq.set_handler arq (fun ~dst:_ ~src:_ i -> received := i :: !received);
      let n = 30 in
      for i = 1 to n do
        Arq.send arq ~src:p0 ~dst:p1 i
      done;
      Gmp_sim.Engine.run engine;
      List.rev !received = List.init n (fun i -> i + 1))

let test_arq_teardown_drains_event_queue () =
  (* A retransmit timer toward a destination that will never ack (crashed,
     or total loss) used to run forever and keep the simulation alive.
     Tearing the channel down must cancel it so the engine drains. *)
  let engine, arq = setup ~loss:0.99 ~duplicate:0.0 () in
  Arq.set_handler arq (fun ~dst:_ ~src:_ () -> ());
  Arq.send arq ~src:p0 ~dst:p1 ();
  Arq.send arq ~src:p2 ~dst:p1 ();
  Gmp_sim.Engine.run ~until:50.0 engine;
  check bool "retransmitting into the void" true
    (Arq.retransmissions arq > 0 && Gmp_sim.Engine.pending_events engine > 0);
  Arq.teardown_to arq p1;
  Gmp_sim.Engine.run ~until:200.0 engine;
  check int "event queue drains after teardown" 0
    (Gmp_sim.Engine.pending_events engine)

let test_arq_teardown_single_channel () =
  (* Teardown is per-channel and drops the backlog: the first p0->p1
     datagram is already in flight (its late ack must be ignored), the
     queued second one must never go out, and p2's channel is untouched. *)
  let engine, arq = setup ~loss:0.0 ~duplicate:0.0 () in
  let got = ref 0 in
  Arq.set_handler arq (fun ~dst:_ ~src:_ () -> incr got);
  Arq.send arq ~src:p0 ~dst:p1 ();
  Arq.send arq ~src:p0 ~dst:p1 ();
  Arq.teardown arq ~src:p0 ~dst:p1;
  Arq.send arq ~src:p2 ~dst:p1 ();
  Gmp_sim.Engine.run ~until:100.0 engine;
  check int "backlogged message dropped" 2 !got;
  check int "nothing pending" 0 (Gmp_sim.Engine.pending_events engine)

(* AB4's exact setup (bench/main.ml): the alternating-bit instance's
   datagram and retransmission counts are pinned, so any change to what it
   sends, or when, fails here rather than drifting a bench table. *)
let test_arq_ab4_pinned () =
  List.iter
    (fun (loss, sent, retransmits) ->
      let engine = Gmp_sim.Engine.create () in
      let rng = Gmp_sim.Rng.create 17 in
      let delay = Delay.uniform ~lo:0.5 ~hi:1.5 in
      let arq = Arq.create ~loss ~duplicate:0.05 ~rto:5.0 ~engine ~rng ~delay () in
      let received = ref 0 in
      Arq.set_handler arq (fun ~dst:_ ~src:_ _ -> incr received);
      for i = 1 to 200 do
        Arq.send arq ~src:p0 ~dst:p1 i
      done;
      Gmp_sim.Engine.run engine;
      let at = Printf.sprintf " at loss %.1f" loss in
      check int ("all delivered" ^ at) 200 !received;
      check int ("datagrams_sent" ^ at) sent (Arq.datagrams_sent arq);
      check int ("retransmissions" ^ at) retransmits (Arq.retransmissions arq))
    [ (0.0, 415, 0); (0.3, 701, 204); (0.7, 2869, 1979) ]

(* ---- the go-back-N instance over the simulated medium ---- *)

module M = Arq.Machine

(* A data frame carries the ack its sender owes back, if any, in front. *)
type gbn_frame = Data of int option * int * int | Ack of int

(* p0 <-> p1: go-back-N both ways over [Lossy], timers on the engine, each
   end's owed acks riding on its own data when it sends some. [send] and
   [received] are the p0 -> p1 direction, [send_back] and
   [received_back] the reverse;
   [blackhole] swallows every data frame p0 puts on the wire; [rounds]
   collects the virtual times p0's retransmit rounds fire at; [idle] is
   p0's sender having nothing unacked. *)
type gbn = {
  engine : Gmp_sim.Engine.t;
  send : int -> unit;
  send_back : int -> unit;
  received : int list ref;
  received_back : int list ref;
  blackhole : bool ref;
  rounds : float list ref;
  idle : unit -> bool;
  registry : Gmp_obs.Obs.registry;
}

let gbn ?(fifo = true) ?(loss = 0.0) ?(duplicate = 0.0) ?(seed = 1) ~rto
    ~rto_max () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create seed in
  let lossy =
    Lossy.create ~fifo ~loss ~duplicate ~engine ~rng
      ~delay:(Delay.uniform ~lo:0.5 ~hi:1.5)
      ()
  in
  let registry = Gmp_obs.Obs.create () in
  let config = M.go_back_n ~rto ~rto_max registry in
  let pid = [| p0; p1 |] in
  let tx = Array.init 2 (fun _ -> M.sender config)
  and rx = Array.init 2 (fun _ -> M.receiver config)
  and got = Array.init 2 (fun _ -> ref []) in
  let blackhole = ref false and rounds = ref [] in
  let now () = Gmp_sim.Engine.now engine in
  let cancel = Gmp_sim.Engine.cancel engine in
  let rec apply i out =
    M.apply tx.(i) out ~cancel
      ~transmit:(fun (e : int M.entry) ->
        let ack = M.piggyback rx.(i) ~cancel in
        if not (i = 0 && !blackhole) then
          Lossy.send lossy ~src:pid.(i) ~dst:pid.(1 - i)
            (Data (ack, e.seq, e.payload)))
      ~schedule:(fun time ->
        Gmp_sim.Engine.schedule_at engine ~time (fun () ->
            if i = 0 then rounds := now () :: !rounds;
            apply i (M.timeout tx.(i) ~now:(now ()))))
  in
  let acked i next = apply i (M.ack tx.(i) ~now:(now ()) ~next) in
  Lossy.set_handler lossy (fun ~dst ~src:_ frame ->
      let i = if Pid.equal dst p0 then 0 else 1 in
      match frame with
      | Ack next -> acked i next
      | Data (ack, seq, x) ->
        Option.iter (acked i) ack;
        let ack next = Lossy.send lossy ~src:pid.(i) ~dst:pid.(1 - i) (Ack next) in
        if
          M.receive rx.(i) ~now:(now ()) ~seq ~ack ~schedule:(fun time ->
              Gmp_sim.Engine.schedule_at engine ~time (fun () ->
                  M.flush rx.(i) ~cancel:ignore ~ack))
        then got.(i) := x :: !(got.(i)));
  let send i x = apply i (M.send tx.(i) ~now:(now ()) x) in
  { engine;
    send = send 0;
    send_back = send 1;
    received = got.(1);
    received_back = got.(0);
    blackhole;
    rounds;
    idle = (fun () -> M.idle tx.(0));
    registry }

let gbn_counter g name =
  match Gmp_obs.Obs.Snapshot.find (Gmp_obs.Obs.snapshot g.registry) name with
  | Some (Gmp_obs.Obs.Snapshot.Counter v) -> v
  | _ -> Alcotest.failf "%s missing" name

let prop_gbn_sound_over_reordering =
  QCheck.Test.make
    ~name:"go-back-N: exactly-once in-order over reordering links"
    ~count:60
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 50))
    (fun (seed, loss_pct) ->
      (* The sound counterpart to "arq: unsound over reordering links":
         unbounded sequence numbers let no stale frame or ack pass. *)
      let g =
        gbn ~fifo:false
          ~loss:(float_of_int loss_pct /. 100.0)
          ~duplicate:0.15 ~seed ~rto:5.0 ~rto_max:80.0 ()
      in
      let n = 30 in
      for i = 1 to n do
        g.send i
      done;
      Gmp_sim.Engine.run g.engine;
      List.rev !(g.received) = List.init n (fun i -> i + 1))

let test_gbn_backoff_virtual_time () =
  let g = gbn ~rto:1.0 ~rto_max:8.0 () in
  let counter = gbn_counter g in
  let floats = Alcotest.(list (float 1e-9)) in
  g.blackhole := true;
  List.iter g.send [ 1; 2; 3 ];
  Gmp_sim.Engine.run ~until:32.0 g.engine;
  (* rto 1 doubling to the cap of 8: rounds at 1, 3, 7, 15, then every 8. *)
  check floats "rounds double, then cap at rto_max"
    [ 1.0; 3.0; 7.0; 15.0; 23.0; 31.0 ]
    (List.rev !(g.rounds));
  check int "every round resends the whole window" 18
    (counter "arq.retransmits");
  (* The hole closes; the seventh round gets through and is acked. *)
  g.blackhole := false;
  Gmp_sim.Engine.run g.engine;
  check (Alcotest.list int) "delivered once, in order" [ 1; 2; 3 ]
    (List.rev !(g.received));
  (match
     Gmp_obs.Obs.Snapshot.find (Gmp_obs.Obs.snapshot g.registry)
       "arq.backoff_rounds"
   with
  | Some (Gmp_obs.Obs.Snapshot.Histogram d) ->
    check int "one quiet spell recovered" 1 (Gmp_obs.Obs.Snapshot.count d);
    check (Alcotest.float 0.0) "of seven rounds" 7.0 d.sum
  | _ -> Alcotest.fail "arq.backoff_rounds missing");
  (* Ack progress reset the backoff: a fresh quiet spell starts at rto. *)
  let t0 = Gmp_sim.Engine.now g.engine in
  g.rounds := [];
  g.blackhole := true;
  g.send 4;
  Gmp_sim.Engine.run ~until:(t0 +. 4.0) g.engine;
  check floats "backoff reset by ack progress" [ t0 +. 1.0; t0 +. 3.0 ]
    (List.rev !(g.rounds));
  check int "rounds counted" 9 (counter "arq.retransmit_rounds")

(* Rto 5 against one-way delays of at most 1.5: a round trip plus the
   1.25 ack delay fits well inside the retransmit timeout. *)
let test_gbn_one_way_fallback_ack () =
  let g = gbn ~rto:5.0 ~rto_max:80.0 () in
  List.iter g.send [ 1; 2; 3 ];
  Gmp_sim.Engine.run g.engine;
  check (Alcotest.list int) "delivered once, in order" [ 1; 2; 3 ]
    (List.rev !(g.received));
  check bool "the link went idle" true (g.idle ());
  check int "no retransmit round" 0 (gbn_counter g "arq.retransmit_rounds");
  (* All three land before the first one's fallback deadline. *)
  check int "one cumulative ack, alone" 1 (gbn_counter g "arq.acks_sent");
  check int "no data went back to carry it" 0
    (gbn_counter g "arq.acks_piggybacked")

let test_gbn_two_way_piggyback () =
  let g = gbn ~rto:5.0 ~rto_max:80.0 () in
  (* Both ends send every 0.5, well inside the 1.25 ack delay, until 19.5. *)
  let n = 40 in
  for k = 0 to n - 1 do
    ignore
      (Gmp_sim.Engine.schedule_at g.engine
         ~time:(0.5 *. float_of_int k)
         (fun () ->
           g.send k;
           g.send_back k)
        : Gmp_sim.Engine.handle)
  done;
  Gmp_sim.Engine.run ~until:20.0 g.engine;
  check int "no ack alone while data flows both ways" 0
    (gbn_counter g "arq.acks_sent");
  check bool "acks rode on the data" true
    (gbn_counter g "arq.acks_piggybacked" > 0);
  Gmp_sim.Engine.run g.engine;
  check (Alcotest.list int) "delivered once, in order" (List.init n Fun.id)
    (List.rev !(g.received));
  check (Alcotest.list int) "and back" (List.init n Fun.id)
    (List.rev !(g.received_back));
  check bool "the link went idle" true (g.idle ());
  check int "no retransmit round" 0 (gbn_counter g "arq.retransmit_rounds")

let suite =
  [ Alcotest.test_case "lossy: drops" `Quick test_lossy_drops;
    Alcotest.test_case "arq: AB4 counts pinned" `Quick test_arq_ab4_pinned;
    Alcotest.test_case "go-back-N: virtual-time backoff" `Quick
      test_gbn_backoff_virtual_time;
    Alcotest.test_case "go-back-N: one-way link idles via the fallback ack"
      `Quick test_gbn_one_way_fallback_ack;
    Alcotest.test_case "go-back-N: two-way traffic carries every ack"
      `Quick test_gbn_two_way_piggyback;
    QCheck_alcotest.to_alcotest prop_gbn_sound_over_reordering;
    Alcotest.test_case "arq: teardown drains the event queue" `Quick
      test_arq_teardown_drains_event_queue;
    Alcotest.test_case "arq: teardown is per-channel" `Quick
      test_arq_teardown_single_channel;
    Alcotest.test_case "lossy: duplicates" `Quick test_lossy_duplicates;
    Alcotest.test_case "lossy: reorders with ~fifo:false" `Quick
      test_lossy_reorders;
    Alcotest.test_case "lossy: FIFO by default" `Quick test_lossy_fifo_by_default;
    Alcotest.test_case "arq: unsound over reordering links" `Quick
      test_arq_unsound_over_reordering_links;
    Alcotest.test_case "arq: reliable FIFO under loss+dup" `Quick
      test_arq_reliable_fifo_under_loss;
    Alcotest.test_case "arq: clean link, no retransmit" `Quick
      test_arq_no_loss_no_retransmit;
    Alcotest.test_case "arq: channels independent" `Quick
      test_arq_channels_independent;
    Alcotest.test_case "arq: 80% loss" `Quick
      test_arq_heavy_loss_eventually_delivers;
    QCheck_alcotest.to_alcotest prop_arq_exactly_once_in_order ]
