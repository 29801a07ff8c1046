(* The trace indexes against their list-scan oracle, and the engine's
   tombstone-compaction bound.

   [Trace]'s queries are served from indexes built incrementally at [record]
   time; [Naive] below keeps the seed's list scans. On any trace the two
   must agree exactly — fuzzing the recorded kinds exercises every index. *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group

let qtest = QCheck_alcotest.to_alcotest

(* ---- the oracle: the seed's naive list scans, O(length) per call ---- *)

module Naive = struct
  open Trace

  let by_owner t pid =
    List.filter (fun e -> Pid.equal e.owner pid) (events t)

  let installs t =
    List.filter_map
      (fun e ->
        match e.kind with
        | Installed { ver; view_members } -> Some (e, ver, view_members)
        | _ -> None)
      (events t)

  let installs_of t pid =
    List.filter_map
      (fun (e, ver, view_members) ->
        if Pid.equal e.owner pid then Some (ver, view_members) else None)
      (installs t)

  let detections t =
    List.filter_map
      (fun e -> match e.kind with Faulty q -> Some (e.owner, q, e) | _ -> None)
      (events t)

  let quits t =
    List.filter_map
      (fun e ->
        match e.kind with
        | Quit reason -> Some (e.owner, `Quit reason)
        | Crashed -> Some (e.owner, `Crashed)
        | _ -> None)
      (events t)

  let violations t =
    List.filter_map
      (fun e -> match e.kind with Violation v -> Some (e.owner, v) | _ -> None)
      (events t)

  let owners t =
    List.fold_left
      (fun acc e ->
        if List.exists (Pid.equal e.owner) acc then acc else e.owner :: acc)
      [] (events t)
    |> List.rev
end

(* The same property logic as [Checker], run on the naive scans. *)
module Naive_checker = Checker.Make (Naive)

(* ---- fuzzed traces: indexed queries = naive list scans ---- *)

let kind_of_code owner code ver =
  let p = Pid.make (code * 7 mod 6) in
  match code with
  | 0 -> Trace.Faulty p
  | 1 -> Trace.Operating p
  | 2 -> Trace.Removed { target = p; new_ver = ver }
  | 3 -> Trace.Added { target = p; new_ver = ver }
  | 4 -> Trace.Installed { ver; view_members = [ owner; p ] }
  | 5 -> Trace.Quit "fuzz"
  | 6 -> Trace.Crashed
  | 7 -> Trace.Initiated_reconf { at_ver = ver }
  | 8 -> Trace.Proposed { target_ver = ver; ops = [] }
  | 9 -> Trace.Committed { ver; commit_kind = `Update }
  | 10 -> Trace.Became_mgr { at_ver = ver }
  | _ -> Trace.Violation "fuzz"

let build_trace entries =
  let trace = Trace.create () in
  let counters = Hashtbl.create 8 in
  List.iteri
    (fun i (o, code, ver) ->
      let owner = Pid.make o in
      let index = try Hashtbl.find counters o with Not_found -> 0 in
      Hashtbl.replace counters o (index + 1);
      Trace.record trace ~owner ~index ~time:(float_of_int i)
        ~vc:Gmp_causality.Vector_clock.empty
        (kind_of_code owner code ver))
    entries;
  trace

let entries_arb =
  (* (owner id, kind code, version): small ranges so owners and kinds
     collide often and every index gets multi-element lists. *)
  QCheck.(list (triple (int_bound 5) (int_bound 11) (int_bound 4)))

let prop_indexes_match_reference =
  QCheck.Test.make ~name:"trace: indexed queries = list-scan reference"
    ~count:300 entries_arb (fun entries ->
      let t = build_trace entries in
      let pids = Pid.make 99 :: Trace.owners t in
      Trace.owners t = Naive.owners t
      && Trace.installs t = Naive.installs t
      && Trace.detections t = Naive.detections t
      && Trace.quits t = Naive.quits t
      && Trace.violations t = Naive.violations t
      && List.for_all
           (fun p ->
             Trace.by_owner t p = Naive.by_owner t p
             && Trace.installs_of t p = Naive.installs_of t p)
           pids)

let prop_checker_instances_agree =
  QCheck.Test.make ~name:"checker: indexed instance = reference instance"
    ~count:100 entries_arb (fun entries ->
      let t = build_trace entries in
      let initial = Pid.group 4 in
      Checker.check_safety t ~initial
      = Naive_checker.check_safety t ~initial)

let prop_checker_agrees_on_runs =
  QCheck.Test.make ~name:"checker: instances agree on real churn runs"
    ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let _, group = Gmp_workload.Scenario.random_churn ~seed () in
      let trace = Group.trace group in
      let initial = Group.initial group in
      Checker.check_safety trace ~initial
      = Naive_checker.check_safety trace ~initial)

(* ---- SoA event queue against a sorted-list oracle ---- *)

(* The oracle is a list of (time, id) kept in firing order: stable insertion
   after every entry with time <= the new time is exactly the queue's
   tie-break-by-seq contract. Times are drawn from a four-value set so ties
   are the common case, not the exception. *)

let oracle_insert oracle time id =
  let rec go = function
    | ((t', _) as hd) :: tl when t' <= time -> hd :: go tl
    | rest -> (time, id) :: rest
  in
  go oracle

let queue_ops_arb =
  (* (op code, time code): 0-6 add, 7-8 pop, 9 filter (the compaction
     primitive). Add-biased so the queue actually grows. *)
  QCheck.(list (pair (int_bound 9) (int_bound 3)))

let prop_queue_matches_oracle =
  QCheck.Test.make ~name:"event queue: SoA heap = sorted-list oracle"
    ~count:300 queue_ops_arb (fun ops ->
      let q = Gmp_sim.Event_queue.create () in
      let oracle = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun (code, tcode) ->
          if code < 7 then begin
            let time = float_of_int tcode in
            let id = !next_id in
            incr next_id;
            Gmp_sim.Event_queue.add q ~time id;
            oracle := oracle_insert !oracle time id
          end
          else if code < 9 then begin
            (match Gmp_sim.Event_queue.pop q, !oracle with
             | None, [] -> ()
             | Some (t, id), (t', id') :: rest when t = t' && id = id' ->
               oracle := rest
             | _ -> ok := false);
            (match Gmp_sim.Event_queue.peek_time q, !oracle with
             | None, [] -> ()
             | Some t, (t', _) :: _ when t = t' -> ()
             | _ -> ok := false)
          end
          else begin
            Gmp_sim.Event_queue.filter_in_place q (fun id -> id land 1 = 1);
            oracle := List.filter (fun (_, id) -> id land 1 = 1) !oracle
          end)
        ops;
      !ok && Gmp_sim.Event_queue.to_sorted_list q = !oracle)

let engine_ops_arb = QCheck.(list (pair (int_bound 9) (int_bound 7)))

let prop_engine_matches_oracle =
  (* schedule/cancel/step against the same oracle, carrying handles; after
     every cancel the compaction bound from PR 1 must hold. *)
  QCheck.Test.make ~name:"engine: schedule/cancel/step = oracle + bound"
    ~count:200 engine_ops_arb (fun ops ->
      let e = Gmp_sim.Engine.create () in
      let fired = ref [] in
      let live = ref [] in (* (fire_at, id, handle) in firing order *)
      let next_id = ref 0 in
      let ok = ref true in
      let insert time id h =
        let rec go = function
          | ((t', _, _) as hd) :: tl when t' <= time -> hd :: go tl
          | rest -> (time, id, h) :: rest
        in
        live := go !live
      in
      List.iter
        (fun (code, x) ->
          if code < 5 then begin
            let delay = float_of_int x in
            let id = !next_id in
            incr next_id;
            let time = Gmp_sim.Engine.now e +. delay in
            let h =
              Gmp_sim.Engine.schedule e ~delay (fun () -> fired := id :: !fired)
            in
            insert time id h
          end
          else if code < 8 then begin
            (match !live with
             | [] -> ()
             | l ->
               let i = x mod List.length l in
               let _, _, h = List.nth l i in
               Gmp_sim.Engine.cancel e h;
               live := List.filteri (fun j _ -> j <> i) l);
            (* Tombstones were just eligible for compaction: the queue may
               hold at most 2x the live timers (below the threshold the
               engine doesn't bother). *)
            let len = Gmp_sim.Engine.queue_length e in
            if not (len < 64 || len <= 2 * Gmp_sim.Engine.pending_events e)
            then ok := false
          end
          else begin
            let expect = !live in
            let stepped = Gmp_sim.Engine.step e in
            match expect with
            | [] -> if stepped then ok := false
            | (t, id, _) :: rest ->
              live := rest;
              if not stepped then ok := false
              else begin
                (match !fired with
                 | id' :: _ when id' = id -> ()
                 | _ -> ok := false);
                if Gmp_sim.Engine.now e <> t then ok := false
              end
          end)
        ops;
      !ok && Gmp_sim.Engine.pending_events e = List.length !live)

(* ---- engine: cancelled-timer tombstones stay bounded ---- *)

let test_compaction_bound () =
  let e = Gmp_sim.Engine.create () in
  let live = 128 in
  let handles =
    Array.init live (fun i ->
        Gmp_sim.Engine.schedule e ~delay:(1e6 +. float_of_int i) ignore)
  in
  for i = 0 to 99_999 do
    let slot = i mod live in
    Gmp_sim.Engine.cancel e handles.(slot);
    handles.(slot) <-
      Gmp_sim.Engine.schedule e ~delay:(2e6 +. float_of_int i) ignore;
    let len = Gmp_sim.Engine.queue_length e in
    if len > 2 * live then
      Alcotest.failf "cycle %d: queue length %d >= 2 x %d live timers" i len
        live
  done;
  Alcotest.(check int) "live timers intact" live
    (Gmp_sim.Engine.pending_events e);
  let final = Gmp_sim.Engine.queue_length e in
  if final >= 2 * live then
    Alcotest.failf "after 100k cycles: queue length %d >= 2 x %d" final live;
  (* The churn really went through the heap: 100k + initial schedules. *)
  Alcotest.(check bool) "peak saw the tombstones" true
    (Gmp_sim.Engine.peak_queue_length e > live)

let test_compaction_preserves_order () =
  (* Cancel every other timer out of 1000, then fire the rest: the survivors
     must fire in schedule order despite intervening compactions. *)
  let e = Gmp_sim.Engine.create () in
  let fired = ref [] in
  let handles =
    List.init 1000 (fun i ->
        ( i,
          Gmp_sim.Engine.schedule e
            ~delay:(float_of_int (i + 1))
            (fun () -> fired := i :: !fired) ))
  in
  List.iter
    (fun (i, h) -> if i mod 2 = 0 then Gmp_sim.Engine.cancel e h)
    handles;
  Gmp_sim.Engine.run e;
  let expected = List.init 500 (fun i -> (2 * i) + 1) in
  Alcotest.(check (list int)) "odd timers fired in order" expected
    (List.rev !fired)

let suite =
  List.map qtest
    [ prop_indexes_match_reference;
      prop_checker_instances_agree;
      prop_checker_agrees_on_runs;
      prop_queue_matches_oracle;
      prop_engine_matches_oracle ]
  @ [ Alcotest.test_case "engine: 100k schedule/cancel stays bounded" `Quick
        test_compaction_bound;
      Alcotest.test_case "engine: compaction preserves firing order" `Quick
        test_compaction_preserves_order ]
