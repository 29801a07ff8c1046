(* Smaller units: Stat percentiles, Trace queries, Wire categories, Group
   API behaviour. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

let p i = Pid.make i

(* ---- Stat ---- *)

let test_stat_basic () =
  let s = Gmp_sim.Stat.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  check int "count" 4 s.Gmp_sim.Stat.count;
  check flt "mean" 2.5 s.Gmp_sim.Stat.mean;
  check flt "min" 1.0 s.Gmp_sim.Stat.min;
  check flt "max" 4.0 s.Gmp_sim.Stat.max;
  check flt "p50" 2.5 s.Gmp_sim.Stat.p50

let test_stat_percentiles () =
  let values = List.init 101 (fun i -> float_of_int i) in
  let s = Gmp_sim.Stat.of_list values in
  check flt "p50" 50.0 s.Gmp_sim.Stat.p50;
  check flt "p90" 90.0 s.Gmp_sim.Stat.p90;
  check flt "p99" 99.0 s.Gmp_sim.Stat.p99

let test_stat_singleton_and_empty () =
  let s = Gmp_sim.Stat.of_ints [ 7 ] in
  check flt "singleton p90" 7.0 s.Gmp_sim.Stat.p90;
  check flt "singleton sd" 0.0 s.Gmp_sim.Stat.stddev;
  check bool "empty rejected" true
    (try ignore (Gmp_sim.Stat.of_list []); false with Invalid_argument _ -> true)

(* ---- Wire ---- *)

let test_wire_categories_cover_protocol () =
  let messages =
    [ Wire.Heartbeat;
      Wire.Faulty_report (p 1);
      Wire.Join_request;
      Wire.Join_forward (p 1);
      Wire.Invite { op = Types.Remove (p 1); invite_ver = 1 };
      Wire.Invite_ok { ok_ver = 1 };
      Wire.Commit
        { op = Types.Remove (p 1);
          commit_ver = 1;
          contingent = None;
          faulty = [];
          recovered = [] };
      Wire.Welcome { w_members = [ p 0 ]; w_ver = 1; w_seq = [] };
      Wire.Interrogate;
      Wire.Interrogate_ok { reply_ver = 0; reply_seq = []; reply_next = [] };
      Wire.Propose
        { target_ver = 1;
          canonical_seq = [ Types.Remove (p 0) ];
          invis = None;
          prop_faulty = [] };
      Wire.Propose_ok { pok_ver = 1 };
      Wire.Reconf_commit
        { target_ver = 1;
          canonical_seq = [ Types.Remove (p 0) ];
          invis = None;
          prop_faulty = [] } ]
  in
  (* Categories are distinct per constructor and the protocol set covers
     exactly the §7.2-accounted ones. *)
  List.iter
    (fun m ->
      let category = Wire.category m in
      let counted = List.mem category Wire.protocol_categories in
      let expected =
        match m with
        | Wire.Heartbeat | Wire.Faulty_report _ | Wire.Join_request
        | Wire.Join_forward _ | Wire.Welcome _ | Wire.App _ ->
          false
        | _ -> true
      in
      check bool (Wire.category m) expected counted)
    messages;
  check int "update + reconf = protocol"
    (List.length Wire.update_categories + List.length Wire.reconf_categories)
    (List.length Wire.protocol_categories)

let test_wire_pp_total () =
  (* Printing never raises, for the interesting constructors. *)
  let print m = ignore (Fmt.str "%a" Wire.pp m) in
  print Wire.Heartbeat;
  print (Wire.Invite { op = Types.Add (p 9); invite_ver = 3 });
  print
    (Wire.Commit
       { op = Types.Add (p 9);
         commit_ver = 3;
         contingent = Some (Types.Remove (p 1));
         faulty = [ p 1 ];
         recovered = [ p 9 ] });
  print
    (Wire.Propose
       { target_ver = 2;
         canonical_seq = [ Types.Remove (p 0); Types.Add (p 9) ];
         invis = Some (Types.Remove (p 1));
         prop_faulty = [ p 0 ] })

(* ---- Trace queries ---- *)

let test_trace_queries () =
  let group = Group.create ~seed:91 ~n:4 () in
  Group.crash_at group 10.0 (p 3);
  Group.run ~until:200.0 group;
  let trace = Group.trace group in
  check bool "has events" true (Trace.length trace > 0);
  check int "owners" 4 (List.length (Trace.owners trace));
  let installs = Trace.installs_of trace (p 0) in
  check bool "p0 installed v0 and v1" true
    (List.mem_assoc 0 installs && List.mem_assoc 1 installs);
  let detections = Trace.detections trace in
  check bool "someone detected p3" true
    (List.exists (fun (_, q, _) -> Pid.equal q (p 3)) detections);
  check bool "crash recorded" true
    (List.exists
       (fun (owner, what) -> Pid.equal owner (p 3) && what = `Crashed)
       (Trace.quits trace));
  check int "no violations recorded" 0 (List.length (Trace.violations trace));
  (* by_owner returns only that owner's events, in order. *)
  let mine = Trace.by_owner trace (p 1) in
  check bool "by_owner filters" true
    (List.for_all (fun (e : Trace.event) -> Pid.equal e.Trace.owner (p 1)) mine)

let test_trace_timeline () =
  let group = Group.create ~seed:93 ~n:3 () in
  Group.crash_at group 10.0 (p 2);
  Group.run ~until:100.0 group;
  let rendered = Fmt.str "%a" Trace.pp_timeline (Group.trace group) in
  let lines = String.split_on_char '\n' rendered in
  check bool "has a header and rows" true (List.length lines > 3);
  let header = List.hd lines in
  List.iter
    (fun i ->
      let name = Pid.to_string (p i) in
      let contains =
        let nl = String.length name and hl = String.length header in
        let rec go j =
          j + nl <= hl && (String.sub header j nl = name || go (j + 1))
        in
        go 0
      in
      check bool (name ^ " column present") true contains)
    [ 0; 1; 2 ];
  (* The crash and the resulting install both appear. *)
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go j =
      j + nl <= hl && (String.sub rendered j nl = needle || go (j + 1))
    in
    go 0
  in
  check bool "crash marked" true (contains "CRASH");
  check bool "view 1 marked" true (contains "V1")

(* ---- Group API ---- *)

let test_group_api () =
  let group = Group.create ~seed:92 ~n:3 () in
  check int "pids" 3 (List.length (Group.pids group));
  check bool "member lookup" true
    (Pid.equal (Member.pid (Group.nth group 1)) (p 1));
  check bool "unknown member rejected" true
    (try ignore (Group.member group (p 9)); false
     with Invalid_argument _ -> true);
  Group.run ~until:50.0 group;
  (match Group.agreed_view group with
   | Some (0, members) -> check int "initial view" 3 (List.length members)
   | _ -> Alcotest.fail "expected agreement on v0");
  check int "no protocol traffic when quiet" 0 (Group.protocol_messages group)

let test_group_rejects_bad_sizes () =
  check bool "n=0 rejected" true
    (try ignore (Group.create ~n:0 ()); false with Invalid_argument _ -> true)

(* Pid.Slots resolves most lookups by id alone; incarnations sharing an
   id, truncation and ids past the id table must still fall back to the
   hashed index. *)
let test_pid_slots () =
  let module S = Pid.Slots in
  let s = S.create () in
  let p3 = Pid.make 3 and p3' = Pid.reincarnate (Pid.make 3) in
  let p5 = Pid.make 5 and far = Pid.make 1_000_000 in
  let int = Alcotest.int in
  Alcotest.check int "first" 0 (S.intern s p3);
  Alcotest.check int "reincarnation gets its own slot" 1 (S.intern s p3');
  Alcotest.check int "third" 2 (S.intern s p5);
  Alcotest.check int "older incarnation still found" 0 (S.find s p3);
  Alcotest.check int "newer incarnation found" 1 (S.find s p3');
  Alcotest.check int "intern is idempotent" 0 (S.intern s p3);
  Alcotest.check int "unknown pid" (-1) (S.find s (Pid.make 7));
  Alcotest.check Alcotest.bool "get" true (Pid.equal (S.get s 1) p3');
  S.truncate s 1;
  Alcotest.check int "length after truncate" 1 (S.length s);
  Alcotest.check int "truncated pid gone" (-1) (S.find s p3');
  Alcotest.check int "truncated pid gone (2)" (-1) (S.find s p5);
  Alcotest.check int "slot reused in order" 1 (S.intern s p5);
  Alcotest.check int "large id interned" 2 (S.intern s far);
  Alcotest.check int "large id found" 2 (S.find s far);
  Alcotest.check Alcotest.bool "get past length raises" true
    (match S.get s 3 with _ -> false | exception Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "stat: basics" `Quick test_stat_basic;
    Alcotest.test_case "pid: dense slots" `Quick test_pid_slots;
    Alcotest.test_case "stat: percentiles" `Quick test_stat_percentiles;
    Alcotest.test_case "stat: singleton/empty" `Quick
      test_stat_singleton_and_empty;
    Alcotest.test_case "wire: category accounting" `Quick
      test_wire_categories_cover_protocol;
    Alcotest.test_case "wire: printing is total" `Quick test_wire_pp_total;
    Alcotest.test_case "trace: queries" `Quick test_trace_queries;
    Alcotest.test_case "trace: timeline rendering" `Quick test_trace_timeline;
    Alcotest.test_case "group: api" `Quick test_group_api;
    Alcotest.test_case "group: bad sizes" `Quick test_group_rejects_bad_sizes ]
