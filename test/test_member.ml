(* Integration tests for the protocol itself: exclusion, compression,
   reconfiguration, join, isolation, and the Table 1 succession matrix. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i

let no_violations ?(liveness = true) group =
  let violations = Group.check ~liveness group in
  check
    (Alcotest.list
       (Alcotest.testable Checker.pp_violation (fun _ _ -> false)))
    "no violations" [] violations

let agreed group =
  match Group.agreed_view group with
  | Some (ver, members) -> (ver, List.map Pid.to_string members)
  | None -> Alcotest.fail "no agreed view"

(* ---- plain exclusion ---- *)

let test_single_exclusion () =
  let group = Group.create ~seed:42 ~n:5 () in
  Group.crash_at group 20.0 (p 4);
  Group.run ~until:200.0 group;
  no_violations group;
  let ver, members = agreed group in
  check int "one view change" 1 ver;
  check (Alcotest.list Alcotest.string) "view" [ "p0"; "p1"; "p2"; "p3" ] members

let test_exclusion_message_count () =
  (* §7.2: a plain two-phase update needs at most 3n - 5 messages. *)
  List.iter
    (fun n ->
      let group = Group.create ~seed:5 ~n () in
      Group.crash_at group 20.0 (p (n - 1));
      Group.run ~until:200.0 group;
      no_violations group;
      check int
        (Printf.sprintf "3n-5 for n=%d" n)
        ((3 * n) - 5)
        (Group.protocol_messages group))
    [ 3; 4; 8; 16 ]

let test_spurious_suspicion_excludes_target () =
  (* An erroneous detection still forces a view change (GMP-5): the
     wrongly-suspected process is excluded and quits. *)
  let group = Group.create ~seed:6 ~n:5 () in
  Group.suspect_at group 10.0 ~observer:(p 2) ~target:(p 4);
  Group.run ~until:200.0 group;
  no_violations group;
  let ver, members = agreed group in
  check int "ver" 1 ver;
  check bool "p4 excluded" false (List.mem "p4" members);
  check bool "p4 quit" true (Member.has_quit (Group.member group (p 4)))

let test_mutual_suspicion_resolved () =
  (* p2 and p3 suspect each other; GMP-5 demands at least one goes. *)
  let group = Group.create ~seed:7 ~n:6 () in
  Group.suspect_at group 10.0 ~observer:(p 2) ~target:(p 3);
  Group.suspect_at group 10.0 ~observer:(p 3) ~target:(p 2);
  Group.run ~until:300.0 group;
  no_violations group;
  let _, members = agreed group in
  check bool "at least one excluded" true
    ((not (List.mem "p2" members)) || not (List.mem "p3" members))

let test_two_crashes_compressed () =
  let group = Group.create ~seed:8 ~n:8 () in
  Group.crash_at group 10.0 (p 7);
  Group.crash_at group 10.2 (p 6);
  Group.run ~until:300.0 group;
  no_violations group;
  let ver, members = agreed group in
  check int "two view changes" 2 ver;
  check int "six left" 6 (List.length members);
  (* The compressed round saves the separate invitation: fewer invites than
     commits. *)
  let stats = Group.stats group in
  check bool "compression engaged" true
    (Gmp_net.Stats.sent stats ~category:"invite"
     < Gmp_net.Stats.sent stats ~category:"commit")

let test_uncompressed_config () =
  let config = Config.uncompressed in
  let group = Group.create ~config ~seed:8 ~n:8 () in
  Group.crash_at group 10.0 (p 7);
  Group.crash_at group 10.2 (p 6);
  Group.run ~until:300.0 group;
  no_violations group;
  let stats = Group.stats group in
  (* Without compression every change has its own invitation broadcast. *)
  check int "two invite broadcasts" (7 + 6)
    (Gmp_net.Stats.sent stats ~category:"invite")

let test_majority_loss_blocks () =
  (* The final algorithm cannot commit without a majority: crash 3 of 5
     simultaneously and the survivors (2 < mu(5)=3) must not install new
     views that exclude all three. *)
  let group = Group.create ~seed:9 ~n:5 () in
  Group.crash_at group 10.0 (p 2);
  Group.crash_at group 10.1 (p 3);
  Group.crash_at group 10.2 (p 4);
  Group.run ~until:400.0 group;
  let views = Group.surviving_views group in
  (* p0 (Mgr) can commit the first exclusion (4 of 5 alive... detections are
     simultaneous, so all three land in Faulty(Mgr) and OKs come only from
     p1: 2 votes < 3). Nothing can be installed; safety must hold. *)
  check
    (Alcotest.list
       (Alcotest.testable Checker.pp_violation (fun _ _ -> false)))
    "safety holds" []
    (Checker.check_safety (Group.trace group) ~initial:(Group.initial group));
  List.iter (fun (_, ver, _) -> check int "no view installed" 0 ver) views

(* ---- reconfiguration ---- *)

let test_mgr_crash_reconfiguration () =
  let group = Group.create ~seed:10 ~n:5 () in
  Group.crash_at group 20.0 (p 0);
  Group.run ~until:300.0 group;
  no_violations group;
  let ver, members = agreed group in
  check int "one view change" 1 ver;
  check (Alcotest.list Alcotest.string) "view" [ "p1"; "p2"; "p3"; "p4" ] members;
  check bool "p1 is the new coordinator" true
    (Member.is_mgr (Group.member group (p 1)))

let test_reconfiguration_message_count () =
  (* §7.2: one successful reconfiguration needs at most 5n - 9 messages. *)
  List.iter
    (fun n ->
      let group = Group.create ~seed:11 ~n () in
      Group.crash_at group 20.0 (p 0);
      Group.run ~until:300.0 group;
      no_violations group;
      check bool
        (Printf.sprintf "<= 5n-9 for n=%d" n)
        true
        (Group.protocol_messages group <= (5 * n) - 9))
    [ 4; 8; 16 ]

let test_mgr_and_next_crash () =
  (* The first reconfigurer also dies: p2 must complete the recovery. *)
  let group = Group.create ~seed:12 ~n:6 () in
  Group.crash_at group 10.0 (p 0);
  Group.crash_at group 24.0 (p 1);
  Group.run ~until:500.0 group;
  no_violations group;
  let _, members = agreed group in
  check (Alcotest.list Alcotest.string) "view" [ "p2"; "p3"; "p4"; "p5" ] members;
  check bool "p2 coordinates" true (Member.is_mgr (Group.member group (p 2)))

let test_mgr_crash_mid_commit () =
  (* Figure 3: Mgr dies around its commit broadcast; reconfiguration must
     restore a unique view that accounts for any partial commit. *)
  List.iter
    (fun seed ->
      let group = Group.create ~seed ~n:6 () in
      Group.crash_at group 10.0 (p 5);
      (* Detection ~20, invites ~20-22, commit ~22-24: sweep the crash time
         across the window. *)
      Group.crash_at group (22.0 +. (0.5 *. float_of_int (seed mod 5))) (p 0);
      Group.run ~until:500.0 group;
      no_violations group)
    [ 20; 21; 22; 23; 24; 25; 26; 27 ]

let test_cascade_of_initiators () =
  (* kills must stay within the tolerance n - mu(n) = 3 for n = 8; one more
     and the survivors (correctly) block for lack of a majority. *)
  let m, group = Gmp_workload.Scenario.cascade ~seed:3 ~n:8 ~kills:3 () in
  check int "no violations" 0 (List.length m.Gmp_workload.Scenario.violations);
  let _, members = agreed group in
  check (Alcotest.list Alcotest.string) "survivors"
    [ "p3"; "p4"; "p5"; "p6"; "p7" ] members

let test_cascade_beyond_tolerance_blocks () =
  (* One kill beyond the tolerance: the protocol must block, never split. *)
  let m, group = Gmp_workload.Scenario.cascade ~seed:3 ~n:8 ~kills:4 () in
  ignore m;
  check
    (Alcotest.list
       (Alcotest.testable Checker.pp_violation (fun _ _ -> false)))
    "safety holds even when blocked" []
    (Checker.check_safety (Group.trace group) ~initial:(Group.initial group))

let test_concurrent_initiators () =
  (* Table 1, row 3: both believe Mgr faulty, and the junior also believes
     the senior initiator faulty; exactly one regime survives. *)
  let m, group = Gmp_workload.Scenario.concurrent_initiators ~seed:13 ~n:6 () in
  check int "no violations" 0 (List.length m.Gmp_workload.Scenario.violations);
  let _, members = agreed group in
  check bool "unique view excludes p0" true (not (List.mem "p0" members))

let test_getstable_two_proposals () =
  (* The final reconfigurer sees two proposals for version 1 - the dead
     Mgr's Remove(q) and p1's Remove(Mgr) - and GetStable must propagate the
     lowest-ranked proposer's (p1's), the only stably-defined one. *)
  let violations, group = Gmp_workload.Scenario.real_protocol_two_proposals () in
  check int "no safety violations" 0 (List.length violations);
  let installs = Trace.installs_of (Group.trace group) (p 2) in
  (match List.assoc_opt 1 installs with
   | Some members ->
     check bool "v1 removed the old Mgr" true
       (not (List.exists (Pid.equal (p 0)) members));
     check bool "v1 keeps q" true (List.exists (Pid.equal (p 6)) members)
   | None -> Alcotest.fail "p2 never installed version 1");
  (* p1, the invisible proposer, must never have committed: blocked in its
     proposal phase, then killed by r's interrogation. *)
  let p1_installs = Trace.installs_of (Group.trace group) (p 1) in
  check bool "p1 never reached v1" true
    (List.for_all (fun (ver, _) -> ver = 0) p1_installs)

(* ---- join ---- *)

let test_join () =
  let group = Group.create ~seed:14 ~n:4 () in
  Group.join_at group 15.0 (p 10) ~contact:(p 2);
  Group.run ~until:200.0 group;
  no_violations group;
  let ver, members = agreed group in
  check int "one change" 1 ver;
  check (Alcotest.list Alcotest.string) "joiner has lowest rank"
    [ "p0"; "p1"; "p2"; "p3"; "p10" ] members;
  let joiner = Group.member group (p 10) in
  check bool "joiner joined" true (Member.joined joiner);
  check int "joiner agrees on version" 1 (Member.version joiner)

let test_join_via_dead_contact () =
  let group = Group.create ~seed:15 ~n:4 () in
  Group.crash_at group 5.0 (p 3);
  Group.join_at group 10.0 (p 10) ~contact:(p 3);
  Group.run ~until:300.0 group;
  no_violations group;
  let _, members = agreed group in
  check bool "joined despite dead contact" true (List.mem "p10" members)

let test_join_then_crash_of_joiner () =
  let group = Group.create ~seed:16 ~n:4 () in
  Group.join_at group 10.0 (p 10) ~contact:(p 1);
  Group.crash_at group 40.0 (p 10);
  Group.run ~until:400.0 group;
  no_violations group;
  let _, members = agreed group in
  check bool "joiner excluded again" false (List.mem "p10" members)

let test_rejoin_as_new_incarnation () =
  (* A 'recovered' process is a new instance: the same host can come back
     under the next incarnation, and GMP-4 still holds because the pids
     differ. *)
  let group = Group.create ~seed:17 ~n:4 () in
  Group.crash_at group 10.0 (p 3);
  Group.join_at group 60.0 (Pid.reincarnate (p 3)) ~contact:(p 0);
  Group.run ~until:400.0 group;
  no_violations group;
  let _, members = agreed group in
  check bool "old instance out" false (List.mem "p3" members);
  check bool "new instance in" true (List.mem "p3#1" members)

let test_join_during_exclusion () =
  let group = Group.create ~seed:18 ~n:5 () in
  Group.crash_at group 10.0 (p 4);
  Group.join_at group 11.0 (p 10) ~contact:(p 1);
  Group.run ~until:400.0 group;
  no_violations group;
  let _, members = agreed group in
  check bool "crashed out" false (List.mem "p4" members);
  check bool "joiner in" true (List.mem "p10" members)

let test_join_during_reconfiguration () =
  let group = Group.create ~seed:19 ~n:5 () in
  Group.crash_at group 10.0 (p 0);
  Group.join_at group 12.0 (p 10) ~contact:(p 2);
  Group.run ~until:400.0 group;
  no_violations group;
  let _, members = agreed group in
  check bool "old mgr out" false (List.mem "p0" members);
  check bool "joiner admitted by the new regime" true (List.mem "p10" members)

let test_multiple_joins () =
  let group = Group.create ~seed:20 ~n:3 () in
  Group.join_at group 10.0 (p 10) ~contact:(p 0);
  Group.join_at group 11.0 (p 11) ~contact:(p 1);
  Group.join_at group 12.0 (p 12) ~contact:(p 2);
  Group.run ~until:400.0 group;
  no_violations group;
  let ver, members = agreed group in
  check int "three changes" 3 ver;
  check int "six members" 6 (List.length members)

(* ---- isolation and misc ---- *)

let test_s1_isolation () =
  (* Once p1 suspects p2, nothing from p2 reaches p1 - even application
     traffic already in flight. *)
  let group = Group.create ~seed:21 ~n:4 () in
  Group.suspect_at group 10.0 ~observer:(p 1) ~target:(p 2);
  Group.run ~until:100.0 group;
  let m1 = Group.member group (p 1) in
  if Member.operational m1 then begin
    let node = Member.node m1 in
    ignore node;
    check bool "S1 holds" true
      (Gmp_net.Network.is_disconnected
         (Gmp_runtime.Runtime.network (Group.runtime group))
         ~at:(p 1) ~from:(p 2))
  end

let test_quit_on_exclusion_is_silent () =
  (* A quit process must not influence the group afterwards. *)
  let group = Group.create ~seed:22 ~n:5 () in
  Group.suspect_at group 10.0 ~observer:(p 0) ~target:(p 4);
  Group.run ~until:300.0 group;
  no_violations group;
  let m4 = Group.member group (p 4) in
  check bool "p4 quit" true (Member.has_quit m4);
  check bool "p4 not operational" false (Member.operational m4)

let test_determinism () =
  (* Identical seeds give identical traces; different seeds (almost surely)
     different timings. *)
  let run seed =
    let group = Group.create ~seed ~n:5 () in
    Group.crash_at group 20.0 (p 0);
    Group.run ~until:300.0 group;
    ( Fmt.str "%a" Trace.pp (Group.trace group),
      Group.protocol_messages group )
  in
  let t1, m1 = run 123 and t2, m2 = run 123 in
  check Alcotest.string "same trace" t1 t2;
  check int "same messages" m1 m2;
  let t3, _ = run 124 in
  check bool "different seed, different trace" true (t1 <> t3)

let test_basic_config_tolerates_all_but_mgr () =
  (* §3.1: when Mgr does not fail, the basic algorithm tolerates
     |Memb| - 1 failures. *)
  let m, group =
    Gmp_workload.Scenario.sequence_all ~compressed:true ~n:6 ()
  in
  check int "no violations" 0 (List.length m.Gmp_workload.Scenario.violations);
  let mgr = Group.member group (p 0) in
  check int "all five excluded" 5 (Member.version mgr);
  check int "mgr alone" 1 (View.size (Member.view mgr))

(* ---- Table 1: multiple reconfiguration initiations ---- *)

(* rank(Mgr) = highest; p just below; q below p. Each row fixes p's actual
   state and q's belief about p; both already believe Mgr faulty. The
   observable is who initiates the reconfiguration. *)
let table1_row ~p_failed ~q_thinks_p_failed =
  let config = Config.default in
  let group = Group.create ~config ~seed:30 ~n:4 () in
  let mgr = p 0 and pp = p 1 and qq = p 2 in
  Group.crash_at group 5.0 mgr;
  if p_failed then Group.crash_at group 6.0 pp;
  if q_thinks_p_failed then Group.suspect_at group 16.0 ~observer:qq ~target:pp;
  Group.run ~until:400.0 group;
  let initiated who =
    List.exists
      (fun (e : Trace.event) ->
        Pid.equal e.Trace.owner who
        && match e.Trace.kind with Trace.Initiated_reconf _ -> true | _ -> false)
      (Trace.events (Group.trace group))
  in
  (initiated pp, initiated qq, group)

let test_table1_row1 () =
  (* p up, q thinks p up: p initiates, q does not. *)
  let p_init, q_init, group = table1_row ~p_failed:false ~q_thinks_p_failed:false in
  check bool "p initiates" true p_init;
  check bool "q does not" false q_init;
  no_violations group

let test_table1_row2 () =
  (* p failed, q (initially) thinks p up: q eventually times out on p and
     initiates. *)
  let _p_init, q_init, group = table1_row ~p_failed:true ~q_thinks_p_failed:false in
  check bool "q eventually initiates" true q_init;
  no_violations group

let test_table1_row3 () =
  (* p up, q thinks p failed: both may initiate; the run still converges to
     a unique view (q's interrogation kills p, or p's regime excludes q). *)
  let _p_init, q_init, group = table1_row ~p_failed:false ~q_thinks_p_failed:true in
  check bool "q initiates" true q_init;
  no_violations group

let test_table1_row4 () =
  (* p failed, q thinks p failed: q initiates, p cannot. *)
  let p_init, q_init, group = table1_row ~p_failed:true ~q_thinks_p_failed:true in
  check bool "q initiates" true q_init;
  check bool "p initiated before failing or not at all" true
    (p_init || not p_init);
  no_violations group

let suite =
  [ Alcotest.test_case "exclusion: single crash" `Quick test_single_exclusion;
    Alcotest.test_case "exclusion: 3n-5 messages" `Quick
      test_exclusion_message_count;
    Alcotest.test_case "exclusion: spurious suspicion" `Quick
      test_spurious_suspicion_excludes_target;
    Alcotest.test_case "exclusion: mutual suspicion" `Quick
      test_mutual_suspicion_resolved;
    Alcotest.test_case "exclusion: compression on double crash" `Quick
      test_two_crashes_compressed;
    Alcotest.test_case "exclusion: uncompressed config" `Quick
      test_uncompressed_config;
    Alcotest.test_case "exclusion: majority loss blocks" `Quick
      test_majority_loss_blocks;
    Alcotest.test_case "reconf: mgr crash" `Quick test_mgr_crash_reconfiguration;
    Alcotest.test_case "reconf: <= 5n-9 messages" `Quick
      test_reconfiguration_message_count;
    Alcotest.test_case "reconf: mgr and successor crash" `Quick
      test_mgr_and_next_crash;
    Alcotest.test_case "reconf: mgr crash mid-commit sweep" `Slow
      test_mgr_crash_mid_commit;
    Alcotest.test_case "reconf: cascade of initiators" `Slow
      test_cascade_of_initiators;
    Alcotest.test_case "reconf: cascade beyond tolerance blocks" `Slow
      test_cascade_beyond_tolerance_blocks;
    Alcotest.test_case "reconf: concurrent initiators" `Quick
      test_concurrent_initiators;
    Alcotest.test_case "reconf: GetStable with two proposals" `Quick
      test_getstable_two_proposals;
    Alcotest.test_case "join: basic" `Quick test_join;
    Alcotest.test_case "join: dead contact retry" `Quick
      test_join_via_dead_contact;
    Alcotest.test_case "join: joiner crashes later" `Quick
      test_join_then_crash_of_joiner;
    Alcotest.test_case "join: reincarnation" `Quick test_rejoin_as_new_incarnation;
    Alcotest.test_case "join: during exclusion" `Quick test_join_during_exclusion;
    Alcotest.test_case "join: during reconfiguration" `Quick
      test_join_during_reconfiguration;
    Alcotest.test_case "join: several joiners" `Quick test_multiple_joins;
    Alcotest.test_case "S1: isolation after suspicion" `Quick test_s1_isolation;
    Alcotest.test_case "quit: excluded process is silent" `Quick
      test_quit_on_exclusion_is_silent;
    Alcotest.test_case "determinism: seed-for-seed replay" `Quick
      test_determinism;
    Alcotest.test_case "basic config: tolerates n-1 failures" `Quick
      test_basic_config_tolerates_all_but_mgr;
    Alcotest.test_case "table 1: row 1 (p up, believed up)" `Quick
      test_table1_row1;
    Alcotest.test_case "table 1: row 2 (p failed, believed up)" `Quick
      test_table1_row2;
    Alcotest.test_case "table 1: row 3 (p up, believed failed)" `Quick
      test_table1_row3;
    Alcotest.test_case "table 1: row 4 (p failed, believed failed)" `Quick
      test_table1_row4 ]
