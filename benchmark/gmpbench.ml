(* gmpbench: one benchmark for the simulator, the explorer and the live
   runtime, end to end and per layer. See README.md.

     gmpbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     gmpbench compare A.jsonl B.jsonl [--spec BENCHMARK.json]
     gmpbench smoke [--spec BENCHMARK.json]

   A run prints one line describing itself (environment and parameters)
   and, last, the result object: correct, attempted, failed and the
   metrics of its mode (end to end with --trace 0, per layer with
   --trace 1). --out appends both to FILE as one JSON line, the form
   [compare] reads. A live workload's member processes run as
   [gmpbench member SPEC], exec'd by the run itself. *)

open Gmp_base
module J = Json

type workload = {
  name : string;
  e2e : seed:int -> seconds:float -> Outcome.t -> unit;
  traced : seed:int -> seconds:float -> Outcome.t -> unit;
  smoke_seconds : float;  (** the shortest run that exercises everything *)
}

(* Probes fill the rows of the layers a workload does not run. *)
let wire_probe ~n o =
  Rundir.with_dir "wire" (fun dir -> Metrics.set_absent_all o.Outcome.sheet (Wire_probe.rows ~n ~dir))

let sim_workload name (w : Sim_work.workload) =
  { name;
    e2e = (fun ~seed ~seconds o -> Sim_work.run_e2e w ~seed ~seconds o);
    traced =
      (fun ~seed ~seconds o ->
        Rundir.with_dir "sim" (fun dir -> Sim_work.layer_rows w ~seed ~half:(seconds /. 2.0) ~dir o);
        Explore_work.probe ~seed o;
        Live_work.probe ~seed o;
        wire_probe ~n:w.shape.n o);
    smoke_seconds = 0.2 }

(* The explorer's world for the sim-layer rows: the assurance model's
   group, delays and detector. *)
let explore_workload ~depth ~budget =
  { name = "explore";
    e2e = (fun ~seed ~seconds o -> Explore_work.run_e2e ~depth ~budget ~seed ~seconds o);
    traced =
      (fun ~seed ~seconds o ->
        Explore_work.layer_rows ~depth ~budget ~seed ~seconds o;
        let m = Gmp_explore.Explore.assurance ~seed () in
        Rundir.with_dir "sim" (fun dir ->
            Sim_work.probe ~n:m.n ~config:m.config ~delay:m.delay ~seed ~dir o);
        Live_work.probe ~seed o;
        wire_probe ~n:m.n o);
    smoke_seconds = 0.2 }

(* The live group's shape for the sim-layer rows: its size and detector
   timing, with loopback-to-netem message delays. *)
let live_workload name (cfg : Live_work.cfg) ~smoke_seconds =
  { name;
    e2e = (fun ~seed ~seconds o -> Live_work.run_e2e cfg ~seed ~seconds o);
    traced =
      (fun ~seed ~seconds o ->
        Live_work.layer_rows cfg ~seed ~seconds o;
        Rundir.with_dir "sim" (fun dir ->
            Sim_work.probe ~n:cfg.members ~config:Live_work.config
              ~delay:(Gmp_net.Delay.uniform ~lo:0.001 ~hi:0.02)
              ~seed ~dir o);
        Explore_work.probe ~seed o;
        wire_probe ~n:cfg.members o);
    smoke_seconds }

let workloads ~smoke =
  let size full small = if smoke then small else full in
  let live (cfg : Live_work.cfg) =
    if smoke then { cfg with rate = Float.min cfg.rate 200.0; warmup = 0.3 } else cfg
  in
  [ sim_workload "sim-steady" (Sim_work.sim_steady ~n:(size 128 16));
    sim_workload "sim-churn" (Sim_work.sim_churn ~n:(size 32 16));
    explore_workload ~depth:(size Explore_work.ci_depth 8) ~budget:(size Explore_work.ci_budget 2000);
    live_workload "live-load-udp" (live Live_work.live_load_udp) ~smoke_seconds:1.0;
    live_workload "live-load-tcp" (live Live_work.live_load_tcp) ~smoke_seconds:1.0;
    (* a kill needs 4.5 s of window *)
    live_workload "live-faults-tcp" (live Live_work.live_faults_tcp) ~smoke_seconds:5.0 ]

(* ---- one run ---- *)

let git args =
  if not (Sys.file_exists ".git") then None
  else
    try
      let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out)
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None

let env () =
  let sha = git "rev-parse HEAD" in
  [ ("git_sha", J.string (Option.value sha ~default:"unknown"));
    ( "dirty",
      match git "status --porcelain --untracked-files=no" with
      | Some s -> J.bool (s <> "")
      | None -> J.null );
    ("nproc", J.int (Domain.recommended_domain_count ()));
    ("ocaml", J.string Sys.ocaml_version) ]

let metrics_json rows =
  J.obj
    (List.map
       (fun (name, value, unit) -> (name, J.obj [ ("value", J.float value); ("unit", J.string unit) ]))
       rows)

let run ?(quiet = false) (w : workload) ~seed ~seconds ~trace ~out =
  let o = Outcome.create () in
  (if trace then w.traced else w.e2e) ~seed ~seconds o;
  let catalog = if trace then Metrics.per_layer else Metrics.end_to_end in
  let rows =
    match Metrics.render o.Outcome.sheet catalog with
    | Ok rows -> rows
    | Error m -> failwith m
  in
  List.iter
    (fun e -> prerr_endline (Printf.sprintf "gmpbench: %s: check failed: %s" w.name e))
    (List.rev o.errors);
  let result =
    J.obj
      [ ("correct", J.bool (o.errors = []));
        ("attempted", J.int o.attempted);
        ("failed", J.int o.failed);
        ("metrics", metrics_json rows) ]
  in
  let about =
    [ ("workload", J.string w.name);
      ("seed", J.int seed);
      ("seconds", J.float seconds);
      ("trace", J.int (if trace then 1 else 0));
      ("env", J.obj (env ()));
      ("params", J.obj o.params) ]
  in
  if not quiet then begin
    print_endline (J.to_compact_string (J.obj [ ("gmpbench", J.obj about) ]));
    print_endline (J.to_compact_string result)
  end;
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (J.to_compact_string (J.obj (about @ [ ("result", result) ])));
      output_char oc '\n';
      close_out oc)
    out;
  (o.errors = [], rows)

(* ---- BENCHMARK.json ---- *)

type spec_metric = { m_name : string; m_unit : string; lower : bool; bound : float }

let read_spec path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match J.of_string text with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  let list key = Option.value (Option.bind (J.member key j) J.to_list_opt) ~default:[] in
  let str key m = Option.value (Option.bind (J.member key m) J.to_string_opt) ~default:"" in
  let metric m =
    { m_name = str "name" m;
      m_unit = str "unit" m;
      lower = str "better" m = "lower";
      bound = Option.value (Option.bind (J.member "bound" m) J.to_float_opt) ~default:0.0 }
  in
  ( List.map (str "name") (list "workloads"),
    List.map metric (list "end_to_end"),
    List.map metric (list "per_layer") )

(* ---- compare ---- *)

type record = { r_workload : string; r_trace : bool; r_metrics : (string * float) list }

let read_records path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match J.of_string line with
         | Error _ -> None
         | Ok j ->
           let ( let* ) = Option.bind in
           let* workload = Option.bind (J.member "workload" j) J.to_string_opt in
           let* trace = Option.bind (J.member "trace" j) J.to_int_opt in
           let* metrics = Option.bind (J.member "result" j) (J.member "metrics") in
           let* fields = J.to_obj_opt metrics in
           Some
             { r_workload = workload;
               r_trace = trace = 1;
               r_metrics =
                 List.filter_map
                   (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) J.to_float_opt))
                   fields })

let values records ~workload name =
  Array.of_list
    (List.filter_map
       (fun r -> if r.r_workload = workload && not r.r_trace then List.assoc_opt name r.r_metrics else None)
       records)

let spread xs =
  if Array.length xs < 2 then (xs.(0), xs.(0), xs.(0))
  else Meter.quartiles xs

(* B against A: worse when B's median is worse than A's by more than the
   bound; unresolved when A's own spread (quartile distance over median)
   exceeds the bound, unless every run of B beats every run of A; better
   when B wins nine in ten index-paired runs and the medians differ by more
   than A's quartile distance; otherwise the same. *)
let verdict m a b =
  let better x y = if m.lower then x < y else x > y in
  let q1a, meda, q3a = spread a and _, medb, _ = spread b in
  let worse_by = (if m.lower then medb -. meda else meda -. medb) /. Float.abs meda in
  let iqr = q3a -. q1a in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better b.(i) a.(i) then incr wins
  done;
  let all_better = Array.for_all (fun y -> Array.for_all (fun x -> better y x) a) b in
  if iqr /. Float.abs meda > m.bound then if all_better then "better" else "unresolved"
  else if worse_by > m.bound then "worse"
  else if float_of_int !wins >= 0.9 *. float_of_int pairs && Float.abs (medb -. meda) > iqr then
    "better"
  else "same"

let compare_files ~spec a_path b_path =
  let workloads, e2e, _ = read_spec spec in
  let a = read_records a_path and b = read_records b_path in
  let worse = ref false in
  Printf.printf "%-16s %-17s %26s %26s %8s %7s %7s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "spreadA" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let va = values a ~workload m.m_name and vb = values b ~workload m.m_name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let q1a, meda, q3a = spread va and q1b, medb, q3b = spread vb in
            let v = verdict m va vb in
            if v = "worse" then worse := true;
            let cell med q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3 in
            Printf.printf "%-16s %-17s %26s %26s %+7.1f%% %6.1f%% %6.0f%%  %s\n" workload m.m_name
              (cell meda q1a q3a) (cell medb q1b q3b)
              (100.0 *. (medb -. meda) /. Float.abs meda)
              (100.0 *. (q3a -. q1a) /. Float.abs meda)
              (100.0 *. m.bound) v
          end)
        e2e)
    workloads;
  if !worse then 1 else 0

(* ---- smoke ---- *)

let smoke ~spec =
  let names, e2e, per_layer = read_spec spec in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same_catalog what catalog spec_metrics =
    let spec_pairs = List.map (fun m -> (m.m_name, m.m_unit)) spec_metrics in
    if List.sort compare catalog <> List.sort compare spec_pairs then
      problem "%s metrics in %s differ from the benchmark's catalog" what spec
  in
  same_catalog "end_to_end" Metrics.end_to_end e2e;
  same_catalog "per_layer" Metrics.per_layer per_layer;
  let table = workloads ~smoke:true in
  List.iter
    (fun name ->
      match List.find_opt (fun w -> w.name = name) table with
      | None -> problem "workload %s in %s is unknown" name spec
      | Some w ->
        List.iter
          (fun (trace, spec_metrics) ->
            match run ~quiet:true w ~seed:1 ~seconds:w.smoke_seconds ~trace ~out:None with
            | exception e -> problem "%s (trace %b): %s" name trace (Printexc.to_string e)
            | ok, rows ->
              if not ok then problem "%s (trace %b): a correctness check failed" name trace;
              List.iter
                (fun m ->
                  match List.find_opt (fun (n, _, _) -> n = m.m_name) rows with
                  | None -> problem "%s (trace %b): %s missing" name trace m.m_name
                  | Some (_, v, u) ->
                    if u = "" || u <> m.m_unit then
                      problem "%s: %s has unit %S, not %S" name m.m_name u m.m_unit;
                    if not (Float.is_finite v) then problem "%s: %s is not finite" name m.m_name)
                spec_metrics)
          [ (false, e2e); (true, per_layer) ])
    names;
  List.iter (fun p -> prerr_endline ("gmpbench smoke: " ^ p)) (List.rev !problems);
  if !problems = [] then (
    prerr_endline "gmpbench smoke: every workload reports every metric";
    0)
  else 1

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: gmpbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]\n\
    \       gmpbench compare A.jsonl B.jsonl [--spec BENCHMARK.json]\n\
    \       gmpbench smoke [--spec BENCHMARK.json]";
  exit 2

let rec options acc = function
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest ->
    let opts = options [] rest in
    exit (compare_files ~spec:(Option.value (List.assoc_opt "spec" opts) ~default:"BENCHMARK.json") a b)
  | "smoke" :: rest ->
    let opts = options [] rest in
    exit (smoke ~spec:(Option.value (List.assoc_opt "spec" opts) ~default:"BENCHMARK.json"))
  | [ "member"; spec ] -> exit (Live_work.member_process spec)
  | args ->
    let opts = options [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let table = workloads ~smoke:false in
    let w =
      match List.find_opt (fun w -> w.name = get "workload") table with
      | Some w -> w
      | None -> usage ()
    in
    let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
    let seconds =
      match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage ()
    in
    let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    ignore (run w ~seed ~seconds ~trace ~out:(List.assoc_opt "out" opts) : bool * _)
