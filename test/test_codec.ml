(* The live wire codec: golden files, fuzzed round-trips, hostile frames,
   the timer wheel, and JSONL trace I/O. *)

open Gmp_base
open Gmp_causality
open Gmp_core
open Gmp_live

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let p ?(i = 0) id = Pid.make ~incarnation:i id

let msg_testable =
  Alcotest.testable Wire.pp (fun (a : Wire.t) b -> a = b)

let result_of_error e = Fmt.str "%a" Codec.pp_error e

(* ---- golden files: one per Wire.t constructor ----

   The same messages test/golden/gen.ml writes; the committed bytes are
   the specification. An encoding change must ship as a version bump with
   regenerated goldens, never silently. *)

let golden_messages : (string * Wire.t) list =
  [ ("heartbeat", Wire.Heartbeat);
    ("faulty_report", Wire.Faulty_report (p 3));
    ("join_request", Wire.Join_request);
    ("join_forward", Wire.Join_forward (p ~i:1 5));
    ("invite", Wire.Invite { op = Types.Add (p 5); invite_ver = 3 });
    ("invite_ok", Wire.Invite_ok { ok_ver = 3 });
    ( "commit",
      Wire.Commit
        { op = Types.Remove (p 2);
          commit_ver = 4;
          contingent = Some (Types.Add (p 6));
          faulty = [ p 2; p 3 ];
          recovered = [ p 6 ] } );
    ( "welcome",
      Wire.Welcome
        { w_members = [ p 0; p 1; p ~i:1 5 ];
          w_ver = 2;
          w_seq = [ Types.Add (p ~i:1 5); Types.Remove (p 2) ] } );
    ("interrogate", Wire.Interrogate);
    ( "interrogate_ok",
      Wire.Interrogate_ok
        { reply_ver = 2;
          reply_seq = [ Types.Remove (p 1) ];
          reply_next =
            [ Types.Awaiting_proposal (p 4);
              Types.Expected
                { canonical = [ Types.Add (p 2); Types.Remove (p 0) ];
                  coord = p 4;
                  ver = 5 } ] } );
    ( "propose",
      Wire.Propose
        { target_ver = 6;
          canonical_seq = [ Types.Add (p 1); Types.Remove (p 3) ];
          invis = Some (Types.Remove (p 0));
          prop_faulty = [ p 0 ] } );
    ("propose_ok", Wire.Propose_ok { pok_ver = 6 });
    ( "reconf_commit",
      Wire.Reconf_commit
        { target_ver = 2;
          canonical_seq = [ Types.Remove (p 4) ];
          invis = None;
          prop_faulty = [] } );
    ("app", Wire.App { app_ver = 1; payload = Codec.Blob "hi\x00\xff" }) ]

(* Resolved against the test binary, not the working directory, so the
   suite passes however it is launched. *)
let golden_dir = Filename.concat (Filename.dirname Sys.executable_name) "golden"

let read_golden name =
  let path = Filename.concat golden_dir (name ^ ".bin") in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_covers_every_constructor () =
  (* One golden per Wire.t constructor; this count must move with the
     type, so a new constructor cannot ship unpinned. *)
  check Alcotest.int "constructor count" 14 (List.length golden_messages)

let test_golden_encode () =
  List.iter
    (fun (name, msg) ->
      check Alcotest.string
        (Printf.sprintf "%s encodes to its golden bytes" name)
        (read_golden name) (Codec.encode_msg msg))
    golden_messages

let test_golden_decode () =
  List.iter
    (fun (name, msg) ->
      match Codec.decode_msg (read_golden name) with
      | Ok decoded ->
        check msg_testable
          (Printf.sprintf "%s decodes from its golden bytes" name)
          msg decoded
      | Error e -> Alcotest.failf "%s: decode failed: %s" name (result_of_error e))
    golden_messages

let test_golden_frames () =
  (* Frame goldens round-trip through decode_frame. *)
  List.iter
    (fun name ->
      match Codec.decode_frame (read_golden name) with
      | Ok frame ->
        check Alcotest.string
          (Printf.sprintf "%s re-encodes identically" name)
          (read_golden name) (Codec.encode_frame frame)
      | Error e -> Alcotest.failf "%s: decode failed: %s" name (result_of_error e))
    [ "frame_data"; "frame_ack"; "frame_ctrl_shutdown"; "frame_ctrl_blackhole";
      "frame_ctrl_unblackhole"; "frame_ctrl_set_netem";
      "frame_ctrl_set_netem_default"; "frame_ctrl_ack";
      "frame_ctrl_get_metrics"; "frame_metrics" ]

(* ---- fuzzed round-trips ---- *)

let pid_gen =
  QCheck.Gen.map2
    (fun id i -> Pid.make ~incarnation:i id)
    (QCheck.Gen.int_bound 9) (QCheck.Gen.int_bound 2)

let op_gen =
  QCheck.Gen.map2
    (fun remove pid -> if remove then Types.Remove pid else Types.Add pid)
    QCheck.Gen.bool pid_gen

let seq_gen = QCheck.Gen.(list_size (int_bound 4) op_gen)

let expectation_gen =
  QCheck.Gen.(
    frequency
      [ (1, map (fun p -> Types.Awaiting_proposal p) pid_gen);
        ( 1,
          map3
            (fun canonical coord ver ->
              Types.Expected { canonical; coord; ver })
            seq_gen pid_gen (int_bound 20) ) ])

let proposal_gen =
  QCheck.Gen.(
    map
      (fun (((target_ver, canonical_seq), invis), prop_faulty) ->
        { Wire.target_ver; canonical_seq; invis; prop_faulty })
      (pair
         (pair (pair (int_bound 20) seq_gen) (option op_gen))
         (list_size (int_bound 3) pid_gen)))

let msg_gen =
  QCheck.Gen.(
    frequency
      [ (1, return Wire.Heartbeat);
        (1, map (fun p -> Wire.Faulty_report p) pid_gen);
        (1, return Wire.Join_request);
        (1, map (fun p -> Wire.Join_forward p) pid_gen);
        ( 2,
          map2
            (fun op invite_ver -> Wire.Invite { op; invite_ver })
            op_gen (int_bound 20) );
        (1, map (fun ok_ver -> Wire.Invite_ok { ok_ver }) (int_bound 20));
        ( 2,
          map
            (fun ((op, commit_ver, contingent), (faulty, recovered)) ->
              Wire.Commit { op; commit_ver; contingent; faulty; recovered })
            (pair
               (triple op_gen (int_bound 20) (option op_gen))
               (pair
                  (list_size (int_bound 3) pid_gen)
                  (list_size (int_bound 3) pid_gen))) );
        ( 1,
          map3
            (fun w_members w_ver w_seq -> Wire.Welcome { w_members; w_ver; w_seq })
            (list_size (int_bound 5) pid_gen)
            (int_bound 20) seq_gen );
        (1, return Wire.Interrogate);
        ( 2,
          map3
            (fun reply_ver reply_seq reply_next ->
              Wire.Interrogate_ok { reply_ver; reply_seq; reply_next })
            (int_bound 20) seq_gen
            (list_size (int_bound 3) expectation_gen) );
        (2, map (fun prop -> Wire.Propose prop) proposal_gen);
        (1, map (fun pok_ver -> Wire.Propose_ok { pok_ver }) (int_bound 20));
        (1, map (fun prop -> Wire.Reconf_commit prop) proposal_gen);
        ( 1,
          map2
            (fun app_ver payload ->
              Wire.App { app_ver; payload = Codec.Blob payload })
            (int_bound 20) (string_size (int_bound 40)) ) ])

let msg_arbitrary = QCheck.make ~print:(Fmt.str "%a" Wire.pp) msg_gen

let fuzz_msg_roundtrip =
  QCheck.Test.make ~name:"codec: decode (encode m) = m" ~count:1000
    msg_arbitrary (fun m ->
      match Codec.decode_msg (Codec.encode_msg m) with
      | Ok m' -> m = m'
      | Error _ -> false)

let vc_gen =
  QCheck.Gen.map Vector_clock.of_list
    QCheck.Gen.(list_size (int_bound 4) (pair pid_gen (int_bound 50)))

let frame_gen =
  QCheck.Gen.(
    frequency
      [ ( 4,
          map
            (fun (((src, chan_seq), vc), msg) ->
              Codec.Data { src; chan_seq; vc; msg })
            (pair (pair (pair pid_gen (int_bound 10000)) vc_gen) msg_gen) );
        ( 2,
          map2
            (fun src ack_next -> Codec.Ack { src; ack_next })
            pid_gen (int_bound 10000) );
        ( 1,
          map
            (fun token -> Codec.Ctrl { token; cmd = Codec.Shutdown })
            (int_bound 0xFFFF) );
        ( 1,
          map2
            (fun token p -> Codec.Ctrl { token; cmd = Codec.Blackhole p })
            (int_bound 0xFFFF) pid_gen );
        ( 1,
          map2
            (fun token p -> Codec.Ctrl { token; cmd = Codec.Unblackhole p })
            (int_bound 0xFFFF) pid_gen );
        ( 2,
          map3
            (fun token peer ((loss, dup, reorder), (latency, jitter)) ->
              Codec.Ctrl
                { token;
                  cmd =
                    Codec.Set_netem
                      { peer;
                        n_loss = loss *. 0.99;
                        n_latency = latency;
                        n_jitter = jitter;
                        n_dup = dup;
                        n_reorder = reorder } })
            (int_bound 0xFFFF) (option pid_gen)
            (pair
               (triple (float_bound_exclusive 1.0) (float_bound_inclusive 1.0)
                  (float_bound_inclusive 1.0))
               (pair (float_bound_inclusive 2.0) (float_bound_inclusive 1.0))) );
        (1, map (fun token -> Codec.Ctrl_ack { token }) (int_bound 0xFFFF)) ])

let frame_arbitrary =
  QCheck.make
    ~print:(fun f -> Printf.sprintf "%d-byte frame" (String.length (Codec.encode_frame f)))
    frame_gen

let fuzz_frame_roundtrip =
  QCheck.Test.make ~name:"codec: decode_frame (encode_frame f) = f"
    ~count:1000 frame_arbitrary (fun f ->
      match Codec.decode_frame (Codec.encode_frame f) with
      | Ok f' -> Codec.encode_frame f = Codec.encode_frame f'
      | Error _ -> false)

let fuzz_truncation_never_raises =
  (* Every proper prefix of a valid frame decodes to a clean Error. *)
  QCheck.Test.make ~name:"codec: truncated frames fail cleanly" ~count:300
    frame_arbitrary (fun f ->
      let bytes = Codec.encode_frame f in
      let ok = ref true in
      for n = 0 to String.length bytes - 1 do
        match Codec.decode_frame (String.sub bytes 0 n) with
        | Ok _ -> ok := false (* a strict prefix must never decode *)
        | Error _ -> ()
      done;
      !ok)

let fuzz_bitflip_never_raises =
  (* Arbitrary corruption: decode must return, never raise. *)
  QCheck.Test.make ~name:"codec: corrupted frames never raise" ~count:500
    QCheck.(pair frame_arbitrary (pair small_nat char))
    (fun (f, (pos, c)) ->
      let bytes = Bytes.of_string (Codec.encode_frame f) in
      let pos = pos mod Bytes.length bytes in
      Bytes.set bytes pos c;
      match Codec.decode_frame (Bytes.to_string bytes) with
      | Ok _ | Error _ -> true)

(* ---- hostile frames, deterministic cases ---- *)

let decode_error_case name raw expect_fn =
  Alcotest.test_case name `Quick (fun () ->
      match Codec.decode_frame raw with
      | Ok _ -> Alcotest.failf "%s: decoded instead of failing" name
      | Error e ->
        if not (expect_fn e) then
          Alcotest.failf "%s: unexpected error %s" name (result_of_error e))

let valid_frame =
  Codec.encode_frame (Codec.Ack { src = Pid.make 1; ack_next = 3 })

(* A datagram of several frames: the valid ack in front decodes, the bad
   frame after it ends the walk, and the frame behind that is dropped. *)
let datagram_error_case name raw expect_fn =
  Alcotest.test_case name `Quick (fun () ->
      let got = ref [] in
      match Codec.decode_frames raw (fun f -> got := f :: !got) with
      | Ok () -> Alcotest.failf "%s: decoded instead of failing" name
      | Error e ->
        if not (expect_fn e) then
          Alcotest.failf "%s: unexpected error %s" name (result_of_error e);
        check Alcotest.bool "only the leading ack decoded" true
          (!got = [ Codec.Ack { src = Pid.make 1; ack_next = 3 } ]))

let hostile_cases =
  [ decode_error_case "empty input" "" (function
      | Codec.Truncated _ -> true
      | _ -> false);
    decode_error_case "short header" "GM" (function
      | Codec.Truncated _ -> true
      | _ -> false);
    decode_error_case "bad magic"
      ("XY" ^ String.sub valid_frame 2 (String.length valid_frame - 2))
      (function Codec.Bad_magic -> true | _ -> false);
    decode_error_case "future version"
      ("GM\x63" ^ String.sub valid_frame 3 (String.length valid_frame - 3))
      (function Codec.Unsupported_version 0x63 -> true | _ -> false);
    decode_error_case "stale version"
      ("GM\x01" ^ String.sub valid_frame 3 (String.length valid_frame - 3))
      (function Codec.Unsupported_version 1 -> true | _ -> false);
    decode_error_case "oversized declared length"
      ("GM\x02\x7f\xff\xff\xff" ^ "x")
      (function Codec.Oversized _ -> true | _ -> false);
    decode_error_case "truncated body"
      (String.sub valid_frame 0 (String.length valid_frame - 2))
      (function Codec.Truncated _ -> true | _ -> false);
    decode_error_case "trailing bytes" (valid_frame ^ "zz") (function
      | Codec.Malformed _ -> true
      | _ -> false);
    decode_error_case "unknown frame kind"
      ("GM\x02\x00\x00\x00\x01\x0f")
      (function Codec.Malformed _ -> true | _ -> false);
    decode_error_case "lying list count"
      (* A Data frame whose vc claims 2^31 entries in a 30-byte body: the
         count guard must reject it without allocating. *)
      ("GM\x02\x00\x00\x00\x0e" ^ "\x00" (* Data *)
      ^ "\x00\x00\x00\x01\x00\x00\x00\x00" (* src p1 *)
      ^ "\x00\x00\x00\x00" (* chan_seq *)
      ^ "\x7f\xff\xff\xff" (* vc count lie *))
      (function Codec.Malformed _ -> true | _ -> false);
    datagram_error_case "datagram: ack, then a hostile body"
      (valid_frame ^ "GM\x02\x00\x00\x00\x03\xff\xff\xff" ^ valid_frame)
      (function Codec.Malformed _ -> true | _ -> false);
    datagram_error_case "datagram: ack, then bad magic"
      (valid_frame ^ "XY"
      ^ String.sub valid_frame 2 (String.length valid_frame - 2)
      ^ valid_frame)
      (function Codec.Bad_magic -> true | _ -> false) ]
  @
  (* Hostile Set_netem payloads: a valid Ctrl header with the probability /
     delay fields swapped for poison. The model ranges are enforced at
     decode, so a hostile frame cannot install an invalid fault model. *)
  let netem_frame ~loss ~latency =
    let body = Buffer.create 64 in
    Buffer.add_string body "\x02" (* Ctrl *);
    Buffer.add_string body "\x00\x00\x00\x07" (* token *);
    Buffer.add_string body "\x03" (* Set_netem *);
    Buffer.add_string body "\x00" (* peer = None *);
    let f64 v =
      let bits = Int64.bits_of_float v in
      for i = 7 downto 0 do
        Buffer.add_char body
          (Char.chr
             (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
      done
    in
    f64 loss;
    f64 latency;
    f64 0.0 (* jitter *);
    f64 0.0 (* dup *);
    f64 0.0 (* reorder *);
    let b = Buffer.contents body in
    let hdr = Buffer.create 8 in
    Buffer.add_string hdr "GM\x02";
    let n = String.length b in
    List.iter
      (fun shift -> Buffer.add_char hdr (Char.chr ((n lsr shift) land 0xFF)))
      [ 24; 16; 8; 0 ];
    Buffer.contents hdr ^ b
  in
  [ decode_error_case "netem loss = 1.0 rejected"
      (netem_frame ~loss:1.0 ~latency:0.0)
      (function Codec.Malformed _ -> true | _ -> false);
    decode_error_case "netem negative latency rejected"
      (netem_frame ~loss:0.0 ~latency:(-1.0))
      (function Codec.Malformed _ -> true | _ -> false);
    decode_error_case "netem NaN rejected"
      (netem_frame ~loss:Float.nan ~latency:0.0)
      (function Codec.Malformed _ -> true | _ -> false);
    decode_error_case "netem infinity rejected"
      (netem_frame ~loss:0.0 ~latency:Float.infinity)
      (function Codec.Malformed _ -> true | _ -> false);
    Alcotest.test_case "netem golden-shaped frame decodes" `Quick (fun () ->
        match Codec.decode_frame (netem_frame ~loss:0.5 ~latency:0.25) with
        | Ok (Codec.Ctrl { token = 7; cmd = Codec.Set_netem spec }) ->
          check (Alcotest.float 0.0) "loss" 0.5 spec.n_loss;
          check (Alcotest.float 0.0) "latency" 0.25 spec.n_latency
        | Ok _ -> Alcotest.fail "decoded to the wrong frame"
        | Error e -> Alcotest.failf "decode failed: %s" (result_of_error e)) ]

(* ---- the timer wheel ---- *)

let test_timers_order () =
  let t = Timers.create () in
  let fired = ref [] in
  let note n () = fired := n :: !fired in
  ignore (Timers.schedule t ~at:3.0 (note 3) : Timers.entry);
  ignore (Timers.schedule t ~at:1.0 (note 1) : Timers.entry);
  ignore (Timers.schedule t ~at:2.0 (note 2) : Timers.entry);
  check (Alcotest.option (Alcotest.float 0.0)) "next deadline" (Some 1.0)
    (Timers.next_deadline t);
  check Alcotest.int "two fire by 2.5" 2 (Timers.fire_due t ~now:2.5);
  check (Alcotest.list Alcotest.int) "in deadline order" [ 1; 2 ]
    (List.rev !fired);
  check Alcotest.int "last fires" 1 (Timers.fire_due t ~now:10.0);
  check Alcotest.int "wheel drained" 0 (Timers.pending t)

let test_timers_cancel () =
  let t = Timers.create () in
  let fired = ref 0 in
  let e = Timers.schedule t ~at:1.0 (fun () -> incr fired) in
  ignore (Timers.schedule t ~at:2.0 (fun () -> incr fired) : Timers.entry);
  Timers.cancel e;
  Timers.cancel e;
  check (Alcotest.option (Alcotest.float 0.0)) "cancelled entry skipped"
    (Some 2.0) (Timers.next_deadline t);
  check Alcotest.int "only live entry fires" 1 (Timers.fire_due t ~now:5.0);
  check Alcotest.int "fired once" 1 !fired

let test_timers_rearm_in_callback () =
  (* The due set is snapshotted at entry: an entry re-armed in the past by
     its own callback waits for the NEXT fire_due call. One self-re-arming
     timer therefore advances one tick per call instead of spinning the
     loop to quiescence - the starvation the old cascade semantics
     allowed. *)
  let t = Timers.create () in
  let count = ref 0 in
  let rec tick at () =
    incr count;
    if !count < 4 then ignore (Timers.schedule t ~at (tick at) : Timers.entry)
  in
  ignore (Timers.schedule t ~at:1.0 (tick 1.0) : Timers.entry);
  check Alcotest.int "one fire per call" 1 (Timers.fire_due t ~now:1.0);
  check Alcotest.int "ticked once" 1 !count;
  check Alcotest.int "re-armed entry fires next call" 1
    (Timers.fire_due t ~now:1.0);
  ignore (Timers.fire_due t ~now:1.0 : int);
  ignore (Timers.fire_due t ~now:1.0 : int);
  check Alcotest.int "ticked four times over four calls" 4 !count;
  check Alcotest.int "quiescent afterwards" 0 (Timers.fire_due t ~now:1.0)

let test_timers_cancel_within_batch () =
  (* Two entries due in one batch; the first's callback cancels the
     second: the snapshot honours the cancellation. *)
  let t = Timers.create () in
  let fired = ref [] in
  let e2 = ref None in
  ignore
    (Timers.schedule t ~at:1.0 (fun () ->
         fired := 1 :: !fired;
         Option.iter Timers.cancel !e2)
      : Timers.entry);
  e2 := Some (Timers.schedule t ~at:2.0 (fun () -> fired := 2 :: !fired));
  check Alcotest.int "only the canceller fires" 1 (Timers.fire_due t ~now:5.0);
  check (Alcotest.list Alcotest.int) "second was cancelled mid-batch" [ 1 ]
    (List.rev !fired)

let test_timers_fifo_ties () =
  let t = Timers.create () in
  let fired = ref [] in
  List.iter
    (fun n ->
      ignore
        (Timers.schedule t ~at:1.0 (fun () -> fired := n :: !fired)
          : Timers.entry))
    [ 1; 2; 3 ];
  ignore (Timers.fire_due t ~now:1.0 : int);
  check (Alcotest.list Alcotest.int) "ties fire in scheduling order"
    [ 1; 2; 3 ] (List.rev !fired)

(* ---- trace JSONL round-trips ---- *)

let sample_events =
  let vc = Vector_clock.of_list [ (p 0, 3); (p ~i:1 2, 7) ] in
  [ { Trace.owner = p 0; index = 1; time = 1786011887.962642; vc;
      kind = Trace.Installed { ver = 0; view_members = [ p 0; p 1 ] } };
    { Trace.owner = p 0; index = 2; time = 1786011888.1; vc;
      kind = Trace.Faulty (p 1) };
    { Trace.owner = p 0; index = 3; time = 1786011888.25; vc;
      kind = Trace.Removed { target = p 1; new_ver = 1 } };
    { Trace.owner = p 0; index = 4; time = 1786011888.25; vc;
      kind = Trace.Added { target = p ~i:1 2; new_ver = 2 } };
    { Trace.owner = p 0; index = 5; time = 1786011888.5; vc;
      kind = Trace.Quit "removed from view" };
    { Trace.owner = p 1; index = 1; time = 1786011888.625; vc;
      kind = Trace.Crashed };
    { Trace.owner = p 1; index = 2; time = 1786011889.0; vc;
      kind = Trace.Initiated_reconf { at_ver = 2 } };
    { Trace.owner = p 1; index = 3; time = 1786011889.125; vc;
      kind =
        Trace.Proposed
          { target_ver = 3; ops = [ Types.Add (p 4); Types.Remove (p 0) ] } };
    { Trace.owner = p 1; index = 4; time = 1786011889.25; vc;
      kind = Trace.Committed { ver = 3; commit_kind = `Reconf } };
    { Trace.owner = p 1; index = 5; time = 1786011889.375; vc;
      kind = Trace.Committed { ver = 4; commit_kind = `Update } };
    { Trace.owner = p 1; index = 6; time = 1786011889.5; vc;
      kind = Trace.Became_mgr { at_ver = 3 } };
    { Trace.owner = p 1; index = 7; time = 1786011889.625; vc;
      kind = Trace.Operating (p 4) };
    { Trace.owner = p 1; index = 8; time = 1786011889.75; vc;
      kind = Trace.Violation "made up for the round-trip" } ]

let event_testable =
  Alcotest.testable Trace.pp_event (fun (a : Trace.event) b -> a = b)

let test_event_line_roundtrip () =
  List.iter
    (fun e ->
      let line = Json.to_compact_string (Export.json_of_event e) in
      match Trace_io.event_of_line line with
      | Ok e' -> check event_testable "event round-trips" e e'
      | Error m -> Alcotest.failf "parse failed: %s\n%s" m line)
    sample_events

let with_temp_file f =
  let path = Filename.temp_file "gmp_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_writer_and_torn_line () =
  with_temp_file (fun path ->
      let trace = Trace.create () in
      let w = Trace_io.attach trace ~path in
      List.iter
        (fun (e : Trace.event) ->
          Trace.record trace ~owner:e.owner ~index:e.index ~time:e.time
            ~vc:e.vc e.kind)
        sample_events;
      Trace_io.close w;
      (* Simulate a SIGKILL mid-write: chop the file mid-last-line. *)
      let ic = open_in path in
      let full = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out path in
      output_string oc (String.sub full 0 (String.length full - 7));
      close_out oc;
      match Trace_io.read_file path with
      | Error m -> Alcotest.failf "read failed: %s" m
      | Ok events ->
        check Alcotest.int "all but the torn line survive"
          (List.length sample_events - 1)
          (List.length events);
        List.iteri
          (fun i e ->
            check event_testable "event intact" (List.nth sample_events i) e)
          events)

let test_reassemble_order () =
  (* Cross-node merge: ordered by time, ties broken by owner then index. *)
  let vc = Vector_clock.empty in
  let ev owner index time =
    { Trace.owner; index; time; vc; kind = Trace.Faulty (p 9) }
  in
  let a = [ ev (p 1) 1 5.0; ev (p 1) 2 6.0 ] in
  let b = [ ev (p 0) 1 5.0; ev (p 0) 2 7.0 ] in
  let trace = Trace_io.reassemble [ a; b ] in
  let order =
    List.map
      (fun (e : Trace.event) -> (Pid.id e.owner, e.index))
      (Trace.events trace)
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "merged order" [ (0, 1); (1, 1); (1, 2); (0, 2) ] order

(* ---- framing: the TCP stream decoder over the v2 codec ---- *)

let frame_golden_names =
  [ "frame_data"; "frame_ack"; "frame_ctrl_shutdown"; "frame_ctrl_blackhole";
    "frame_ctrl_unblackhole"; "frame_ctrl_set_netem";
    "frame_ctrl_set_netem_default"; "frame_ctrl_ack";
    "frame_ctrl_get_metrics"; "frame_metrics" ]

let test_framing_stream_golden () =
  (* The pinned stream bytes are the concatenation of the frame goldens;
     one whole-stream feed must cut them back out exactly. *)
  let stream = read_golden "stream_frames" in
  check Alcotest.string "stream golden = concat of frame goldens"
    (String.concat "" (List.map read_golden frame_golden_names))
    stream;
  let d = Framing.create () in
  match Framing.feed_string d stream with
  | Error e -> Alcotest.failf "poisoned on golden stream: %s" (result_of_error e)
  | Ok frames ->
    check
      (Alcotest.list Alcotest.string)
      "every frame extracted whole"
      (List.map read_golden frame_golden_names)
      frames;
    check Alcotest.int "nothing pending" 0 (Framing.pending d);
    check Alcotest.int "no partial feeds" 0 (Framing.partial_feeds d)

let feed_in_chunks d stream sizes =
  (* Feed [stream] in chunks cycling through [sizes]; collect frames. *)
  let out = ref [] in
  let n = String.length stream in
  let pos = ref 0 and k = ref 0 in
  while !pos < n do
    let len = min (List.nth sizes (!k mod List.length sizes)) (n - !pos) in
    (match Framing.feed_string d (String.sub stream !pos len) with
    | Ok frames -> out := List.rev_append frames !out
    | Error e -> Alcotest.failf "poisoned mid-stream: %s" (result_of_error e));
    pos := !pos + len;
    incr k
  done;
  List.rev !out

let test_framing_split_across_reads () =
  (* However the kernel slices the stream - byte-by-byte, primes, huge -
     the same frames come out, and byte-level slicing must show partial
     reads. *)
  let stream = read_golden "stream_frames" in
  let expect = List.map read_golden frame_golden_names in
  List.iter
    (fun sizes ->
      let d = Framing.create () in
      check
        (Alcotest.list Alcotest.string)
        "frames survive re-slicing" expect
        (feed_in_chunks d stream sizes);
      check Alcotest.int "all counted" (List.length expect) (Framing.frames d))
    [ [ 1 ]; [ 2; 3; 5; 7; 11 ]; [ 64 ]; [ 1; 1024 ] ];
  let d = Framing.create () in
  ignore (feed_in_chunks d stream [ 1 ]);
  check Alcotest.bool "byte-by-byte slicing shows partial feeds" true
    (Framing.partial_feeds d > 0)

let u32be n =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.to_string b

let test_framing_hostile_streams () =
  let feed_err s =
    let d = Framing.create () in
    match Framing.feed_string d s with
    | Ok _ -> Alcotest.failf "hostile stream %S accepted" s
    | Error e ->
      (* Poisoned: the same error again on any later feed, even a benign
         one - the connection owner must close. *)
      (match Framing.feed_string d (read_golden "frame_ack") with
      | Error e' ->
        check Alcotest.bool "stays poisoned with the same error" true (e = e')
      | Ok _ -> Alcotest.fail "poisoned decoder accepted more bytes");
      e
  in
  (match feed_err ("XY" ^ read_golden "frame_ack") with
  | Codec.Bad_magic -> ()
  | e -> Alcotest.failf "wanted Bad_magic, got %s" (result_of_error e));
  (match feed_err ("GM\x7f" ^ u32be 1 ^ "z") with
  | Codec.Unsupported_version 0x7f -> ()
  | e -> Alcotest.failf "wanted Unsupported_version, got %s" (result_of_error e));
  (match feed_err ("GM" ^ String.make 1 (Char.chr Codec.version) ^ u32be (Codec.max_frame + 1)) with
  | Codec.Oversized _ -> ()
  | e -> Alcotest.failf "wanted Oversized, got %s" (result_of_error e));
  (* A truncated tail is not an error - just an incomplete frame. *)
  let d = Framing.create () in
  let ack = read_golden "frame_ack" in
  (match Framing.feed_string d (String.sub ack 0 (String.length ack - 1)) with
  | Ok [] -> check Alcotest.bool "bytes pending" true (Framing.pending d > 0)
  | Ok _ -> Alcotest.fail "incomplete frame extracted"
  | Error e -> Alcotest.failf "truncation poisoned: %s" (result_of_error e));
  (* A sound header with a hostile body still comes out as one unit: body
     judgment belongs to decode_frame, and must not kill the stream. *)
  let evil = "GM" ^ String.make 1 (Char.chr Codec.version) ^ u32be 3 ^ "\xff\xff\xff" in
  let d = Framing.create () in
  match Framing.feed_string d (evil ^ ack) with
  | Error e -> Alcotest.failf "hostile body poisoned the stream: %s" (result_of_error e)
  | Ok frames ->
    check Alcotest.int "both frames extracted" 2 (List.length frames);
    check Alcotest.bool "hostile body rejected by the codec, not the stream"
      true
      (Result.is_error (Codec.decode_frame (List.nth frames 0)));
    check Alcotest.bool "following frame unharmed" true
      (Codec.decode_frame (List.nth frames 1) = Ok (Codec.Ack { src = p 4; ack_next = 17 }))

(* ---- trace_io: summary lines and forward compatibility ---- *)

let test_unknown_summary_line_skipped () =
  (* A reader must skip summary kinds it does not know (any object
     without an "event" member), so logs written by newer or older nodes
     still reassemble - even with the unknown line mid-file, where
     torn-line tolerance cannot save it. *)
  with_temp_file (fun path ->
      let trace = Trace.create () in
      let w = Trace_io.attach trace ~path in
      let record (e : Trace.event) =
        Trace.record trace ~owner:e.owner ~index:e.index ~time:e.time ~vc:e.vc
          e.kind
      in
      let r = Gmp_obs.Obs.create () in
      Gmp_obs.Obs.inc ~by:3 (Gmp_obs.Obs.counter r "arq.retransmits");
      let snapshot = Gmp_obs.Obs.snapshot r in
      record (List.nth sample_events 0);
      Trace_io.write_metrics w ~pid:(p 0) ~at:1.0 snapshot;
      record (List.nth sample_events 1);
      Trace_io.close w;
      (* Splice in a summary kind from the future and the counter lines
         older nodes wrote, mid-file. *)
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines =
        match List.rev !lines with
        | first :: rest ->
          first
          :: "{\"future_summary\":{\"x\":1},\"schema\":9}"
          :: "{\"arq\":\"p0\",\"counters\":{\"arq.retransmits\":3}}"
          :: "{\"transport\":\"p0\",\"kind\":\"tcp\",\"counters\":{\"transport.connects\":4}}"
          :: rest
        | [] -> []
      in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      (match Trace_io.read_file path with
      | Error m -> Alcotest.failf "unknown summary line broke the reader: %s" m
      | Ok events -> check Alcotest.int "both events survive" 2 (List.length events));
      check Alcotest.bool "metrics line still found" true
        (Trace_io.read_metrics path = Some snapshot))

let suite =
  [ Alcotest.test_case "golden: covers every constructor" `Quick
      test_golden_covers_every_constructor;
    Alcotest.test_case "golden: encode matches bytes" `Quick test_golden_encode;
    Alcotest.test_case "golden: decode recovers messages" `Quick
      test_golden_decode;
    Alcotest.test_case "golden: frames round-trip" `Quick test_golden_frames;
    qtest fuzz_msg_roundtrip;
    qtest fuzz_frame_roundtrip;
    qtest fuzz_truncation_never_raises;
    qtest fuzz_bitflip_never_raises ]
  @ hostile_cases
  @ [ Alcotest.test_case "timers: deadline order" `Quick test_timers_order;
      Alcotest.test_case "timers: cancel" `Quick test_timers_cancel;
      Alcotest.test_case "timers: re-arm inside callback" `Quick
        test_timers_rearm_in_callback;
      Alcotest.test_case "timers: cancel within a batch" `Quick
        test_timers_cancel_within_batch;
      Alcotest.test_case "timers: FIFO on ties" `Quick test_timers_fifo_ties;
      Alcotest.test_case "trace_io: event line round-trip" `Quick
        test_event_line_roundtrip;
      Alcotest.test_case "trace_io: writer + torn last line" `Quick
        test_writer_and_torn_line;
      Alcotest.test_case "trace_io: reassembly order" `Quick
        test_reassemble_order;
      Alcotest.test_case "framing: golden stream decodes whole" `Quick
        test_framing_stream_golden;
      Alcotest.test_case "framing: survives arbitrary read splits" `Quick
        test_framing_split_across_reads;
      Alcotest.test_case "framing: hostile streams poison, bodies don't" `Quick
        test_framing_hostile_streams;
      Alcotest.test_case "trace_io: unknown summary lines skipped" `Quick
        test_unknown_summary_line_skipped ]
