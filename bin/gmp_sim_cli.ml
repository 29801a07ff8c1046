(* Command-line driver: run membership scenarios, dump traces, check the
   GMP specification.

   Examples:
     gmp-sim run -n 8 --crash 4@20 --crash 0@50 --join 10@80 --trace
     gmp-sim scenario mgr-crash -n 16
     gmp-sim sweep --seeds 500
     gmp-sim table1 *)

open Gmp_base
open Gmp_core
module Group = Gmp_runtime.Group
open Cmdliner

(* ---- shared options ---- *)

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let n_term =
  Arg.(
    value
    & opt int 6
    & info [ "n" ] ~docv:"N" ~doc:"Initial group size (p0 .. p(N-1)).")

let until_term =
  Arg.(
    value
    & opt float 500.0
    & info [ "until" ] ~docv:"T" ~doc:"Virtual-time horizon for the run.")

let trace_term =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")

let timeline_term =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:"Print an ASCII space-time diagram of the run.")

let json_term =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Dump the whole run (states, stats, checker verdicts, trace) as JSON.")

(* "4@20" -> (pid 4, time 20.0); "3#1@70" -> incarnation 1 of host 3. *)
let parse_at s =
  match String.split_on_char '@' s with
  | [ who; at ] ->
    let time = float_of_string at in
    let pid =
      match String.split_on_char '#' who with
      | [ id ] -> Pid.make (int_of_string id)
      | [ id; inc ] ->
        Pid.make ~incarnation:(int_of_string inc) (int_of_string id)
      | _ -> failwith "bad pid"
    in
    (pid, time)
  | _ -> failwith "expected PID@TIME"

let at_conv what =
  let parse s =
    match parse_at s with
    | pair -> Ok pair
    | exception _ -> Error (`Msg (Fmt.str "%s expects PID@TIME, got %S" what s))
  in
  let print ppf (pid, t) = Fmt.pf ppf "%a@%g" Pid.pp pid t in
  Arg.conv (parse, print)

let crashes_term =
  Arg.(
    value
    & opt_all (at_conv "--crash") []
    & info [ "crash" ] ~docv:"PID@TIME" ~doc:"Crash process PID at TIME.")

let joins_term =
  Arg.(
    value
    & opt_all (at_conv "--join") []
    & info [ "join" ] ~docv:"PID@TIME"
        ~doc:"Join a fresh process PID at TIME (use ID#INC for incarnations).")

let suspects_term =
  let suspicion_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ obs; rest ] ->
        (try
           let target, time = parse_at rest in
           Ok (Pid.make (int_of_string obs), target, time)
         with _ -> Error (`Msg "expected OBS:TARGET@TIME"))
      | _ -> Error (`Msg "expected OBS:TARGET@TIME")
    in
    let print ppf (o, t, at) = Fmt.pf ppf "%a:%a@%g" Pid.pp o Pid.pp t at in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt_all suspicion_conv []
    & info [ "suspect" ] ~docv:"OBS:TARGET@TIME"
        ~doc:"Inject a (possibly spurious) suspicion.")

let report_text ?(timeline = false) group ~show_trace =
  if show_trace then Fmt.pr "--- trace ---@.%a@." Trace.pp (Group.trace group);
  if timeline then
    Fmt.pr "--- timeline ---@.%a@." Trace.pp_timeline (Group.trace group);
  Fmt.pr "--- final states ---@.%a@." Group.pp_summary group;
  (match Group.agreed_view group with
   | Some (ver, members) ->
     Fmt.pr "agreed view: v%d {%s}@." ver
       (String.concat "," (List.map Pid.to_string members))
   | None -> Fmt.pr "agreed view: NONE@.");
  Fmt.pr "--- message statistics ---@.%a@." Gmp_net.Stats.pp (Group.stats group);
  Fmt.pr "protocol messages (s7.2 accounting): %d@."
    (Group.protocol_messages group);
  let violations = Group.check group in
  if violations = [] then begin
    Fmt.pr "GMP-0..GMP-5 + convergence: all hold@.";
    0
  end
  else begin
    Fmt.pr "VIOLATIONS (%d):@." (List.length violations);
    List.iter (fun v -> Fmt.pr "  %a@." Checker.pp_violation v) violations;
    1
  end

let report ?(json = false) ?timeline group ~show_trace =
  if json then begin
    Fmt.pr "%a@." Gmp_base.Json.pp (Group.to_json group);
    if Group.check group = [] then 0 else 1
  end
  else report_text ?timeline group ~show_trace

(* ---- run: free-form scenario ---- *)

let run_cmd =
  let go seed n until crashes joins suspects show_trace json timeline =
    let group = Group.create ~seed ~n () in
    List.iter (fun (pid, t) -> Group.crash_at group t pid) crashes;
    List.iter
      (fun (pid, t) -> Group.join_at group t pid ~contact:(Pid.make 0))
      joins;
    List.iter
      (fun (observer, target, t) -> Group.suspect_at group t ~observer ~target)
      suspects;
    Group.run ~until group;
    report ~json ~timeline group ~show_trace
  in
  let term =
    Term.(
      const go $ seed_term $ n_term $ until_term $ crashes_term $ joins_term
      $ suspects_term $ trace_term $ json_term $ timeline_term)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a custom crash/join/suspicion schedule.")
    term

(* ---- scenario: named experiments ---- *)

let scenario_cmd =
  let scenarios =
    [ ("single-crash", `Single);
      ("compressed-pair", `Pair);
      ("mgr-crash", `Mgr);
      ("cascade", `Cascade);
      ("sequence", `Sequence);
      ("split", `Split);
      ("fig11", `Fig11);
      ("getstable", `Getstable);
      ("partitioned", `Partitioned) ]
  in
  let name_term =
    Arg.(
      required
      & pos 0 (some (enum scenarios)) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            (Fmt.str "One of: %s."
               (String.concat ", " (List.map fst scenarios))))
  in
  let go which seed n show_trace =
    let module S = Gmp_workload.Scenario in
    let finish (m : S.measurement) group =
      Fmt.pr "n=%d protocol=%d update=%d reconf=%d views=%d violations=%d@."
        m.S.n m.S.protocol_msgs m.S.update_msgs m.S.reconf_msgs
        m.S.views_installed
        (List.length m.S.violations);
      report group ~show_trace
    in
    match which with
    | `Single ->
      let m, g = S.single_crash ~seed ~n () in
      finish m g
    | `Pair ->
      let m, g = S.compressed_pair ~seed ~n () in
      finish m g
    | `Mgr ->
      let m, g = S.mgr_crash ~seed ~n () in
      finish m g
    | `Cascade ->
      let m, g = S.cascade ~seed ~n ~kills:((n / 2) - 1) () in
      finish m g
    | `Sequence ->
      let m, g = S.sequence_all ~seed ~n () in
      finish m g
    | `Split ->
      let violations, g = S.real_protocol_split ~seed ~n () in
      Fmt.pr "safety violations: %d@." (List.length violations);
      report g ~show_trace
    | `Fig11 ->
      let violations, g = S.real_protocol_fig11 ~seed () in
      Fmt.pr "safety violations: %d@." (List.length violations);
      report g ~show_trace
    | `Getstable ->
      let violations, g = S.real_protocol_two_proposals ~seed () in
      Fmt.pr "safety violations: %d@." (List.length violations);
      report g ~show_trace
    | `Partitioned ->
      (* The s8 variation: both sides of a partition keep their own views;
         the divergence the checker reports is the expected observation. *)
      let group =
        Group.create ~config:Gmp_core.Config.partitionable ~seed ~n ()
      in
      let island = List.filteri (fun i _ -> i < (n - 1) / 2) (Group.initial group) in
      Group.partition_at group 10.0 [ island ];
      Group.run ~until:400.0 group;
      Fmt.pr
        "partitioned mode: divergence below is the point (views are not unique)@.";
      report group ~show_trace
  in
  let term =
    Term.(const go $ name_term $ seed_term $ n_term $ trace_term)
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:"Run one of the paper's named experiment scenarios.")
    term

(* ---- sweep: many random churn runs through the checker ---- *)

let sweep_cmd =
  let seeds_term =
    Arg.(
      value & opt int 200
      & info [ "seeds" ] ~docv:"K" ~doc:"Number of randomized runs.")
  in
  let go seeds =
    let bad = ref 0 in
    for seed = 1 to seeds do
      let m, _ = Gmp_workload.Scenario.random_churn ~seed () in
      if m.Gmp_workload.Scenario.violations <> [] then begin
        incr bad;
        Fmt.pr "seed %d: %d violations@." seed
          (List.length m.Gmp_workload.Scenario.violations)
      end
    done;
    Fmt.pr "%d/%d runs satisfy GMP-0..GMP-5 + convergence@." (seeds - !bad)
      seeds;
    if !bad = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Check the GMP spec over many randomized runs.")
    Term.(const go $ seeds_term)

(* ---- fuzz: adversarial schedule search ---- *)

let fuzz_cmd =
  let iterations_term =
    Arg.(
      value & opt int 300
      & info [ "iterations" ] ~docv:"K" ~doc:"Schedules to try.")
  in
  let weaken_term =
    Arg.(
      value & flag
      & info [ "weaken" ]
          ~doc:
            "Drop the majority requirement (Config.basic): the search should \
             then find the known partition divergence.")
  in
  let go iterations weaken seed n =
    let config =
      if weaken then Gmp_core.Config.basic else Gmp_core.Config.default
    in
    let outcome = Gmp_workload.Fuzz.search ~config ~n ~iterations ~seed () in
    match outcome.Gmp_workload.Fuzz.counterexample with
    | None ->
      Fmt.pr "no GMP violation in %d schedules@."
        outcome.Gmp_workload.Fuzz.iterations_run;
      0
    | Some (schedule, violations) ->
      Fmt.pr "COUNTEREXAMPLE after %d schedules:@.  %a@."
        outcome.Gmp_workload.Fuzz.iterations_run Gmp_workload.Fuzz.pp_schedule
        schedule;
      List.iter (fun v -> Fmt.pr "  %a@." Checker.pp_violation v) violations;
      1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Hunt for GMP violations with random schedules.")
    Term.(const go $ iterations_term $ weaken_term $ seed_term $ n_term)

(* ---- explore: bounded deterministic schedule exploration ---- *)

let explore_cmd =
  let module E = Gmp_explore.Explore in
  let depth_term =
    Arg.(
      value & opt int 8
      & info [ "depth" ] ~docv:"D"
          ~doc:"Branching decisions recorded per execution (the rest of each \
                run follows the default deterministic order).")
  in
  let budget_term =
    Arg.(
      value & opt int 3000
      & info [ "budget" ] ~docv:"K" ~doc:"Maximum executions to enumerate.")
  in
  let weaken_term =
    Arg.(
      value & flag
      & info [ "weaken" ]
          ~doc:
            "Explore the weakened algorithm (Config.basic, no majority \
             requirement on updates) under a one-isolation adversary instead \
             of the full algorithm: exploration should then rediscover the \
             known partition divergence.")
  in
  let expect_violation_term =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Invert the exit code: succeed only if a violation IS found \
             (for sensitivity runs in CI).")
  in
  let procs_term =
    Arg.(
      value & opt (some int) None
      & info [ "procs" ] ~docv:"N"
          ~doc:"Group size (default: 3 for assurance, 5 for --weaken).")
  in
  let horizon_term =
    Arg.(
      value & opt (some float) None
      & info [ "horizon" ] ~docv:"T" ~doc:"Virtual-time horizon per execution.")
  in
  let slack_term =
    Arg.(
      value & opt (some float) None
      & info [ "slack" ] ~docv:"S" ~doc:"Ready-window width.")
  in
  let crashes_term =
    Arg.(
      value & opt (some int) None
      & info [ "crashes" ] ~docv:"K" ~doc:"Crash-injection budget per execution.")
  in
  let suspicions_term =
    Arg.(
      value & opt (some int) None
      & info [ "suspicions" ] ~docv:"K"
          ~doc:"Spurious-suspicion budget per execution.")
  in
  let isolations_term =
    Arg.(
      value & opt (some int) None
      & info [ "isolations" ] ~docv:"K"
          ~doc:"Single-process partition budget per execution.")
  in
  let json_term =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "One-line machine-readable JSON summary on stdout (suppresses \
             progress output).")
  in
  let replay_out_term =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay-out" ] ~docv:"FILE"
          ~doc:
            "On a violation, write the counterexample to $(docv) as JSON: \
             the model parameters plus the minimal schedule, everything \
             needed to replay the failure locally. Written only when a \
             counterexample exists; a nightly deep-explore job uploads it \
             as its failure artifact.")
  in
  let go depth budget weaken expect_violation json replay_out procs horizon
      slack crashes suspicions isolations seed =
    let base = if weaken then E.sensitivity ~seed () else E.assurance ~seed () in
    let opt v field = Option.value v ~default:field in
    let model =
      { base with
        E.n = opt procs base.E.n;
        E.horizon = opt horizon base.E.horizon;
        E.slack = opt slack base.E.slack;
        E.adversary =
          { E.crashes = opt crashes base.E.adversary.E.crashes;
            E.suspicions = opt suspicions base.E.adversary.E.suspicions;
            E.isolations = opt isolations base.E.adversary.E.isolations;
            E.heal = base.E.adversary.E.heal } }
    in
    let progress s =
      if not json then Fmt.pr "... %a@." E.pp_stats s
    in
    let outcome = E.explore ~progress model ~depth ~budget in
    let found = outcome.E.counterexample <> None in
    (* Stable exit codes, for CI gates:
         0  outcome matches expectation (violation iff --expect-violation)
         2  unexpected violation found
         3  violation expected (--expect-violation) but none found *)
    let code =
      if found = expect_violation then 0 else if found then 2 else 3
    in
    (match (replay_out, outcome.E.counterexample) with
    | Some path, Some cx ->
      let module J = Gmp_base.Json in
      let doc =
        J.obj
          [ ("mode", J.string (if weaken then "sensitivity" else "assurance"));
            ("seed", J.int seed);
            ("n", J.int model.E.n);
            ("depth", J.int depth);
            ("budget", J.int budget);
            ("injections", J.int cx.E.cx_injections);
            ( "violations",
              J.list (List.map Export.json_of_violation cx.E.cx_violations) );
            ( "schedule",
              J.list (List.map J.string (E.describe model cx.E.cx_choices)) )
          ]
      in
      let oc = open_out path in
      output_string oc (J.to_compact_string doc);
      output_char oc '\n';
      close_out oc;
      if not json then Fmt.pr "counterexample replay written to %s@." path
    | _ -> ());
    if json then begin
      let module J = Gmp_base.Json in
      let s = outcome.E.stats in
      Fmt.pr "%s@."
        (J.to_compact_string
           (J.obj
              [ ("mode", J.string (if weaken then "sensitivity" else "assurance"));
                ("n", J.int model.E.n);
                ("depth", J.int depth);
                ("budget", J.int budget);
                ( "stats",
                  J.obj
                    [ ("executions", J.int s.E.executions);
                      ("distinct", J.int s.E.distinct);
                      ("frames", J.int s.E.frames);
                      ("state_pruned", J.int s.E.state_pruned);
                      ("sleep_pruned", J.int s.E.sleep_pruned);
                      ("max_depth", J.int s.E.max_depth) ] );
                ("violation_found", J.bool found);
                ("violation_expected", J.bool expect_violation);
                ( "counterexample",
                  match outcome.E.counterexample with
                  | None -> J.null
                  | Some cx ->
                    J.obj
                      [ ("injections", J.int cx.E.cx_injections);
                        ( "violations",
                          J.list
                            (List.map Export.json_of_violation
                               cx.E.cx_violations) );
                        ( "schedule",
                          J.list
                            (List.map J.string
                               (E.describe model cx.E.cx_choices)) ) ] );
                ("exit", J.int code) ]))
    end
    else begin
      Fmt.pr "%a@." E.pp_outcome outcome;
      match outcome.E.counterexample with
      | Some cx ->
        Fmt.pr "replayable minimal schedule:@.";
        List.iter
          (fun line -> Fmt.pr "  %s@." line)
          (E.describe model cx.E.cx_choices)
      | None -> ()
    end;
    code
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically enumerate message/timer/fault interleavings \
          (bounded model checking) and run the GMP safety checker on each.")
    Term.(
      const go $ depth_term $ budget_term $ weaken_term $ expect_violation_term
      $ json_term $ replay_out_term $ procs_term $ horizon_term $ slack_term
      $ crashes_term $ suspicions_term $ isolations_term $ seed_term)

(* ---- table1 ---- *)

let table1_cmd =
  let go () =
    let row ~p_failed ~q_thinks =
      let group = Group.create ~seed:30 ~n:4 () in
      Group.crash_at group 5.0 (Pid.make 0);
      if p_failed then Group.crash_at group 6.0 (Pid.make 1);
      if q_thinks then
        Group.suspect_at group 16.0 ~observer:(Pid.make 2) ~target:(Pid.make 1);
      Group.run ~until:400.0 group;
      let initiated who =
        List.exists
          (fun (e : Trace.event) ->
            Pid.equal e.Trace.owner who
            &&
            match e.Trace.kind with
            | Trace.Initiated_reconf _ -> true
            | _ -> false)
          (Trace.events (Group.trace group))
      in
      (initiated (Pid.make 1), initiated (Pid.make 2))
    in
    Fmt.pr "p actual | q thinks p | p initiates | q initiates@.";
    List.iter
      (fun (pf, qt) ->
        let p_init, q_init = row ~p_failed:pf ~q_thinks:qt in
        Fmt.pr "%-8s | %-10s | %-11b | %b@."
          (if pf then "Failed" else "Up")
          (if qt then "Failed" else "Up")
          p_init q_init)
      [ (false, false); (true, false); (false, true); (true, true) ];
    0
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (who initiates reconfiguration).")
    Term.(const go $ const ())

let main_cmd =
  let doc =
    "Group membership / failure detection for asynchronous systems \
     (Ricciardi & Birman, 1991)"
  in
  Cmd.group
    (Cmd.info "gmp-sim" ~version:"1.0.0" ~doc)
    [ run_cmd; scenario_cmd; sweep_cmd; fuzz_cmd; explore_cmd; table1_cmd ]

let () = exit (Cmd.eval' main_cmd)
