(* The schedule explorer: engine ready-window semantics, DFS determinism,
   assurance on the final algorithm, and rediscovery of the no-majority
   hole — more directly than the fuzzer finds it. *)

module Engine = Gmp_sim.Engine
module E = Gmp_explore.Explore

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- engine ready windows ---- *)

let test_ready_window_and_pinned_clock () =
  let e = Engine.create () in
  Engine.set_slack e 0.5;
  let order = ref [] in
  let ev name () = order := name :: !order in
  ignore (Engine.schedule_at e ~proc:0 ~time:1.0 (ev "a") : Engine.handle);
  ignore (Engine.schedule_at e ~proc:1 ~time:1.2 (ev "b") : Engine.handle);
  ignore (Engine.schedule_at e ~proc:2 ~time:2.0 (ev "c") : Engine.handle);
  let ready = Engine.ready e in
  (* 1.0 and 1.2 share the window; 2.0 is beyond the slack *)
  check int "window size" 2 (List.length ready);
  (* Fire the later event first: the clock pins to the window base, so
     same-window reorderings are time-identical downstream. *)
  Engine.fire e (List.nth ready 1);
  check (Alcotest.float 1e-9) "now pinned to window base" 1.0 (Engine.now e);
  check int "front shrank" 1 (List.length (Engine.ready e));
  Engine.fire e (List.hd (Engine.ready e));
  check (Alcotest.list Alcotest.string) "both fired" [ "b"; "a" ]
    (List.rev !order)

let test_ready_channel_fronts () =
  let e = Engine.create () in
  Engine.set_slack e 1.0;
  let nop () = () in
  (* Two messages on the same FIFO channel inside one window: only the
     front is an interchangeable choice. *)
  ignore (Engine.schedule_at e ~proc:1 ~chan:7 ~time:1.0 nop : Engine.handle);
  ignore (Engine.schedule_at e ~proc:1 ~chan:7 ~time:1.5 nop : Engine.handle);
  ignore (Engine.schedule_at e ~proc:2 ~time:1.4 nop : Engine.handle);
  check int "channel front only" 2 (List.length (Engine.ready e))

let test_picker_reorders_ties () =
  let e = Engine.create () in
  let order = ref [] in
  let tag i () = order := i :: !order in
  ignore (Engine.schedule_at e ~proc:0 ~time:1.0 (tag 0) : Engine.handle);
  ignore (Engine.schedule_at e ~proc:1 ~time:1.0 (tag 1) : Engine.handle);
  ignore (Engine.schedule_at e ~proc:2 ~time:1.0 (tag 2) : Engine.handle);
  Engine.set_picker ~slack:0.5 e (fun cands ->
      List.nth cands (List.length cands - 1));
  Engine.run e;
  check (Alcotest.list int) "max-proc picker reverses the tie" [ 2; 1; 0 ]
    (List.rev !order)

let test_picker_must_return_candidate () =
  let e = Engine.create () in
  let nop () = () in
  ignore (Engine.schedule_at e ~time:1.0 nop : Engine.handle);
  ignore (Engine.schedule_at e ~time:1.0 nop : Engine.handle);
  let rogue = Engine.schedule_at e ~time:5.0 nop in
  Engine.set_picker e (fun _ -> rogue);
  check bool "picker result is checked" true
    (try
       ignore (Engine.step e : bool);
       false
     with Invalid_argument _ -> true)

(* ---- explorer ---- *)

let test_explorer_deterministic () =
  (* Same model, depth and budget: identical interleaving counts and the
     same (absent) violation set, run-over-run. *)
  let m = E.assurance () in
  let o1 = E.explore m ~depth:6 ~budget:800 in
  let o2 = E.explore m ~depth:6 ~budget:800 in
  check bool "identical stats" true (o1.E.stats = o2.E.stats);
  check bool "identical verdict" true
    (o1.E.counterexample = o2.E.counterexample);
  check bool "actually explored" true (o1.E.stats.E.distinct > 100)

let test_assurance_quick () =
  let o = E.explore (E.assurance ()) ~depth:8 ~budget:3000 in
  (match o.E.counterexample with
  | Some cx ->
    Alcotest.failf "explorer broke the final algorithm: %a"
      Fmt.(list ~sep:(any "; ") E.pp_choice)
      cx.E.cx_choices
  | None -> ());
  check bool "over a thousand distinct interleavings" true
    (o.E.stats.E.distinct >= 1000);
  check bool "reductions active" true
    (o.E.stats.E.sleep_pruned > 0 && o.E.stats.E.state_pruned > 0)

let test_assurance_ten_thousand () =
  (* The acceptance bar: >= 10k distinct interleavings of the full
     algorithm at n=3, zero violations. The exact stats are pinned too: any
     change to them is a search change. *)
  let o = E.explore (E.assurance ()) ~depth:12 ~budget:25_000 in
  let s = o.E.stats in
  check bool "no violation" true (o.E.counterexample = None);
  check bool
    (Fmt.str "at least 10k distinct interleavings (got %d)" s.E.distinct)
    true (s.E.distinct >= 10_000);
  check int "executions" 25_000 s.E.executions;
  check int "distinct" 15_618 s.E.distinct;
  check int "frames" 176_734 s.E.frames;
  check int "state_pruned" 9_343 s.E.state_pruned;
  check int "sleep_pruned" 50_576 s.E.sleep_pruned

let test_sensitivity_finds_hole () =
  let m = E.sensitivity () in
  let o = E.explore m ~depth:8 ~budget:600 in
  match o.E.counterexample with
  | None -> Alcotest.fail "explorer missed the no-majority divergence"
  | Some cx ->
    check bool "violations attached" true (cx.E.cx_violations <> []);
    (* The fuzzer (seed 12) needs 14 random schedules to stumble on this
       hole and shrinks to <= 2 actions; systematic search must be at
       least as direct on both counts. *)
    check bool
      (Fmt.str "within the fuzzer's find (took %d executions)"
         o.E.stats.E.executions)
      true
      (o.E.stats.E.executions <= 14);
    check bool
      (Fmt.str "minimal counterexample (got %d choices)"
         (List.length cx.E.cx_choices))
      true
      (List.length cx.E.cx_choices <= 2);
    check int "a single injection suffices" 1 cx.E.cx_injections;
    check bool "replay reproduces it" true (E.replay m cx.E.cx_choices <> []);
    let narrated = E.describe m cx.E.cx_choices in
    check bool "narration names the isolation" true
      (List.exists (fun line -> contains line "isolate") narrated)

(* ---- snapshot engine vs rebuild-and-replay oracle ---- *)

let test_snapshots_oracle_equivalence () =
  (* The checkpoint/restore engine (default) and the rebuild-and-replay
     oracle must produce byte-identical outcomes: every statistic, the
     distinct-interleaving count and the (absent) counterexample. The
     depth-10 setting spends most of its budget in the depth-8 round, with
     about four times the state-pruned executions; depth 12 is the
     assurance acceptance setting pinned above. *)
  let m = E.assurance () in
  List.iter
    (fun (depth, budget) ->
      let on = E.explore ~snapshots:true m ~depth ~budget in
      let off = E.explore ~snapshots:false m ~depth ~budget in
      check bool
        (Fmt.str "assurance depth %d: on == off (full outcome)" depth)
        true (on = off);
      check bool "actually explored" true (on.E.stats.E.distinct > 1000))
    [ (8, 3000); (10, 8000); (12, 25_000) ]

let test_snapshots_oracle_equivalence_sensitivity () =
  (* Same equality when a violation is found: identical failing execution
     index, identical shrunk counterexample. *)
  let m = E.sensitivity () in
  let on = E.explore ~snapshots:true m ~depth:8 ~budget:600 in
  let off = E.explore ~snapshots:false m ~depth:8 ~budget:600 in
  check bool "sensitivity: on == off (full outcome)" true (on = off);
  check bool "counterexample found" true (on.E.counterexample <> None)

let test_rejects_bad_bounds () =
  let m = E.assurance () in
  let raises f =
    try
      ignore (f () : E.outcome);
      false
    with Invalid_argument _ -> true
  in
  check bool "depth 0 rejected" true
    (raises (fun () -> E.explore m ~depth:0 ~budget:10));
  check bool "budget 0 rejected" true
    (raises (fun () -> E.explore m ~depth:4 ~budget:0))

let test_nightly_sweep_exhausts () =
  (* The nightly deep sweep's setting: the whole depth-20 tree fits well
     inside the budget, so the search ends by exhaustion, not by budget. *)
  let o = E.explore (E.assurance ()) ~depth:20 ~budget:1_500_000 in
  check bool "no violation" true (o.E.counterexample = None);
  check int "executions to exhaustion" 411_470 o.E.stats.E.executions;
  check int "distinct interleavings" 62_488 o.E.stats.E.distinct

let test_replay_no_choices_is_default_run () =
  (* An empty choice list replays the default deterministic schedule,
     which is clean under both models. *)
  check bool "assurance default clean" true (E.replay (E.assurance ()) [] = []);
  check bool "sensitivity default clean" true
    (E.replay (E.sensitivity ()) [] = [])

let suite =
  [ Alcotest.test_case "engine: ready window + pinned clock" `Quick
      test_ready_window_and_pinned_clock;
    Alcotest.test_case "engine: FIFO channels expose only fronts" `Quick
      test_ready_channel_fronts;
    Alcotest.test_case "engine: picker reorders ties" `Quick
      test_picker_reorders_ties;
    Alcotest.test_case "engine: picker result checked" `Quick
      test_picker_must_return_candidate;
    Alcotest.test_case "explore: deterministic run-over-run" `Quick
      test_explorer_deterministic;
    Alcotest.test_case "explore: assurance smoke" `Quick test_assurance_quick;
    Alcotest.test_case "explore: 10k interleavings, zero violations" `Slow
      test_assurance_ten_thousand;
    Alcotest.test_case "explore: rediscovers the no-majority hole" `Quick
      test_sensitivity_finds_hole;
    Alcotest.test_case "explore: snapshots == replay oracle (assurance)"
      `Quick test_snapshots_oracle_equivalence;
    Alcotest.test_case "explore: snapshots == replay oracle (sensitivity)"
      `Quick test_snapshots_oracle_equivalence_sensitivity;
    Alcotest.test_case "explore: bad depth/budget rejected" `Quick
      test_rejects_bad_bounds;
    Alcotest.test_case "explore: nightly depth-20 sweep exhausts" `Slow
      test_nightly_sweep_exhausts;
    Alcotest.test_case "explore: empty replay = default schedule" `Quick
      test_replay_no_choices_is_default_run ]
