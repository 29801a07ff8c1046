(* The checker on real executions.

   test/fixtures/live holds the per-node JSONL event logs of an actual
   loopback run: 5 gmp-node processes, p2 SIGKILLed at t=3s by
   gmp-cluster, logs harvested afterwards. Reassembled, that trace must
   pass the same GMP-0..5 checker every simulated run faces - and a
   hand-mutilated copy (p0's Faulty event deleted, making its removal of
   p2 capricious) must produce exactly the expected GMP-1 violation.
   Regenerate with:
     gmp-cluster --nodes 5 --run-for 8 --kill 3:p2 --keep-logs --dir ... *)

open Gmp_base
open Gmp_core
open Gmp_live

let check = Alcotest.check

(* Resolved against the test binary, not the working directory, so the
   suite passes however it is launched. *)
let fixture name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "fixtures/live")
    name

let survivors = [ "p0"; "p1"; "p3"; "p4" ]

let read_fixture name =
  match Trace_io.read_file (fixture name) with
  | Ok events -> events
  | Error m -> Alcotest.failf "fixture %s unreadable: %s" name m

let load ?(p0 = "p0.jsonl") () =
  Trace_io.reassemble
    (List.map read_fixture (p0 :: List.map (fun p -> p ^ ".jsonl") [ "p1"; "p2"; "p3"; "p4" ]))

let initial = Pid.group 5

let test_fixture_is_a_real_run () =
  let trace = load () in
  check Alcotest.bool "has events" true (Trace.length trace > 0);
  (* All five processes appear, including the SIGKILLed one. *)
  check Alcotest.int "five owners" 5 (List.length (Trace.owners trace))

let test_live_trace_passes_safety () =
  match Checker.check_safety (load ()) ~initial with
  | [] -> ()
  | vs ->
    Alcotest.failf "violations on a real run: %a"
      Fmt.(list ~sep:(any "; ") Checker.pp_violation)
      vs

let test_live_trace_passes_full_check () =
  (* The whole judgement the orchestrator applies, survivors' final views
     taken from their own logs. *)
  let trace = load () in
  let surviving_views =
    List.map
      (fun p ->
        match Pid.of_string p with
        | None -> assert false
        | Some pid ->
          let install =
            List.fold_left
              (fun acc (e : Trace.event) ->
                if not (Pid.equal e.owner pid) then acc
                else
                  match e.kind with
                  | Trace.Installed { ver; view_members } ->
                    Some (ver, view_members)
                  | _ -> acc)
              None (Trace.events trace)
          in
          (match install with
          | Some (ver, members) -> (pid, ver, members)
          | None -> Alcotest.failf "survivor %s installed nothing" p))
      survivors
  in
  let final_view =
    match surviving_views with (_, _, m) :: _ -> m | [] -> []
  in
  match
    Checker.check_run ~liveness:true trace ~initial ~surviving_views
      ~dead:[ Pid.make 2 ] ~final_view
  with
  | [] -> ()
  | vs ->
    Alcotest.failf "violations: %a"
      Fmt.(list ~sep:(any "; ") Checker.pp_violation)
      vs

let test_mutilated_trace_fails () =
  (* Same run, but p0's Faulty(p2) observation is deleted: its Removed
     event is now capricious and GMP-1 must say so. *)
  match Checker.check_safety (load ~p0:"p0_mutilated.jsonl" ()) ~initial with
  | [] -> Alcotest.fail "mutilated trace passed the checker"
  | vs ->
    check Alcotest.bool "GMP-1 flagged" true
      (List.exists
         (fun (v : Checker.violation) -> v.property = "GMP-1")
         vs)

let suite =
  [ Alcotest.test_case "fixture: is a real 5-node run" `Quick
      test_fixture_is_a_real_run;
    Alcotest.test_case "live trace: safety holds" `Quick
      test_live_trace_passes_safety;
    Alcotest.test_case "live trace: full check_run holds" `Quick
      test_live_trace_passes_full_check;
    Alcotest.test_case "live trace: mutilation is caught" `Quick
      test_mutilated_trace_fails ]
