(* Durable event logs for live nodes, and their reassembly into one global
   trace.

   Each node appends every trace event to its log file as one line of JSON
   (the same shape [Export.json_of_event] gives the sim's exports) and
   flushes per line: a SIGKILLed node's log is complete up to its last
   recorded event, except possibly for one torn final line, which the
   reader tolerates and drops.

   Reassembly merges per-node logs into a single [Trace.t] ordered by
   (wall time, owner, local index). Nodes stamp events with one
   monotonicized absolute clock (see [Clock]), and each owner's own events
   are totally ordered by local index, so this merge is a legal
   linearization of the real execution - exactly what [Checker.check_run]
   expects. Cross-node wall-clock skew can reorder *concurrent* events,
   which the checker's properties are insensitive to by construction (they
   are per-owner or causality-based). *)

open Gmp_base
open Gmp_causality
open Gmp_core
module J = Json

(* ---- writing ---- *)

type writer = { oc : out_channel; mutable closed : bool }

let attach trace ~path =
  let oc = open_out path in
  let w = { oc; closed = false } in
  Trace.set_on_record trace (fun e ->
      if not w.closed then begin
        output_string w.oc (J.to_compact_string (Export.json_of_event e));
        output_char w.oc '\n';
        flush w.oc
      end);
  w

(* Summary lines are JSON objects without an "event" member, written at
   clean shutdown. They are not trace events - the reader skips anything
   event-less when reassembling, so new summary kinds can appear without
   breaking old readers - and a SIGKILLed node simply has none, which the
   harvest treats as "no summary". *)

let write_summary w fields =
  if not w.closed then begin
    output_string w.oc (J.to_compact_string (J.obj fields));
    output_char w.oc '\n';
    flush w.oc
  end

let counters_json counters =
  J.obj (List.map (fun (k, v) -> (k, J.int v)) counters)

let write_arq w ~pid counters =
  (* ARQ and fault-injection counters. [read_arq] extracts this line. *)
  write_summary w
    [ ("arq", J.string (Pid.to_string pid)); ("counters", counters_json counters) ]

let write_transport w ~pid ~kind counters =
  (* The transport's own counters (datagrams or connections/frames);
     [read_transport] extracts this line. *)
  write_summary w
    [ ("transport", J.string (Pid.to_string pid));
      ("kind", J.string kind);
      ("counters", counters_json counters) ]

let write_metrics w ~pid ~at snapshot =
  (* A full registry snapshot. Periodic lines and the shutdown line share
     this shape; [read_metrics] takes the last one (most complete). *)
  write_summary w
    [ ("metrics", J.string (Pid.to_string pid));
      ("at", J.float at);
      ("snapshot", Gmp_obs.Obs.Snapshot.to_json snapshot) ]

let close w =
  if not w.closed then begin
    w.closed <- true;
    close_out w.oc
  end

(* ---- reading ---- *)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let pid_of_json j =
  match J.to_string_opt j with
  | None -> fail "pid is not a string"
  | Some s -> (
    match Pid.of_string s with
    | Some p -> Ok p
    | None -> fail "bad pid %S" s)

let field name conv j =
  match J.member name j with
  | None -> fail "missing field %S" name
  | Some v -> conv v

let int_field name j =
  field name (fun v ->
      match J.to_int_opt v with
      | Some i -> Ok i
      | None -> fail "field %S is not an int" name) j

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let vc_of_json j =
  match J.to_obj_opt j with
  | None -> fail "vc is not an object"
  | Some fields ->
    let* entries =
      map_result
        (fun (k, v) ->
          match (Pid.of_string k, J.to_int_opt v) with
          | Some p, Some n -> Ok (p, n)
          | _ -> fail "bad vc entry %S" k)
        fields
    in
    Ok (Vector_clock.of_list entries)

let op_of_json j =
  match (J.member "add" j, J.member "remove" j) with
  | Some p, None ->
    let* p = pid_of_json p in
    Ok (Types.Add p)
  | None, Some p ->
    let* p = pid_of_json p in
    Ok (Types.Remove p)
  | _ -> fail "bad op"

let kind_of_json j =
  let has name = J.member name j <> None in
  if has "faulty" then
    let* q = field "faulty" pid_of_json j in
    Ok (Trace.Faulty q)
  else if has "operating" then
    let* q = field "operating" pid_of_json j in
    Ok (Trace.Operating q)
  else if has "removed" then
    let* target = field "removed" pid_of_json j in
    let* new_ver = int_field "ver" j in
    Ok (Trace.Removed { target; new_ver })
  else if has "added" then
    let* target = field "added" pid_of_json j in
    let* new_ver = int_field "ver" j in
    Ok (Trace.Added { target; new_ver })
  else if has "installed" then
    let* ver = int_field "installed" j in
    let* view_members =
      field "view"
        (fun v ->
          match J.to_list_opt v with
          | Some xs -> map_result pid_of_json xs
          | None -> fail "view is not a list")
        j
    in
    Ok (Trace.Installed { ver; view_members })
  else if has "quit" then
    let* reason =
      field "quit"
        (fun v ->
          match J.to_string_opt v with
          | Some s -> Ok s
          | None -> fail "quit reason is not a string")
        j
    in
    Ok (Trace.Quit reason)
  else if has "crashed" then Ok Trace.Crashed
  else if has "initiated_reconf" then
    let* at_ver = int_field "initiated_reconf" j in
    Ok (Trace.Initiated_reconf { at_ver })
  else if has "proposed" then
    let* target_ver = int_field "proposed" j in
    let* ops =
      field "ops"
        (fun v ->
          match J.to_list_opt v with
          | Some xs -> map_result op_of_json xs
          | None -> fail "ops is not a list")
        j
    in
    Ok (Trace.Proposed { target_ver; ops })
  else if has "committed" then
    let* ver = int_field "committed" j in
    let* commit_kind =
      field "kind"
        (fun v ->
          match J.to_string_opt v with
          | Some "update" -> Ok `Update
          | Some "reconf" -> Ok `Reconf
          | _ -> fail "bad commit kind")
        j
    in
    Ok (Trace.Committed { ver; commit_kind })
  else if has "became_mgr" then
    let* at_ver = int_field "became_mgr" j in
    Ok (Trace.Became_mgr { at_ver })
  else if has "violation" then
    let* v =
      field "violation"
        (fun v ->
          match J.to_string_opt v with
          | Some s -> Ok s
          | None -> fail "violation is not a string")
        j
    in
    Ok (Trace.Violation v)
  else fail "unrecognized event kind"

let event_of_json j : (Trace.event, string) result =
  let* owner = field "owner" pid_of_json j in
  let* index = int_field "index" j in
  let* time =
    field "time"
      (fun v ->
        match J.to_float_opt v with
        | Some f -> Ok f
        | None -> fail "time is not a number")
      j
  in
  let* vc = field "vc" vc_of_json j in
  let* kind = field "event" kind_of_json j in
  Ok { Trace.owner; index; time; vc; kind }

let event_of_line line =
  let* j = J.of_string line in
  event_of_json j

(* Read one node's log. A process killed mid-write leaves at most one torn
   line, necessarily the last: a parse failure there is dropped silently,
   anywhere else it is a real error. *)
let read_file path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then lines := line :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  let total = List.length lines in
  (* Any parsed object without an "event" member is a summary line -
     including kinds this reader has never heard of, so logs from newer
     writers still reassemble. *)
  let is_summary_line line =
    match J.of_string line with
    | Ok j -> J.to_obj_opt j <> None && J.member "event" j = None
    | Error _ -> false
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if is_summary_line line then go (i + 1) acc rest
      else (
        match event_of_line line with
        | Ok e -> go (i + 1) (e :: acc) rest
        | Error m ->
          if i = total - 1 then Ok (List.rev acc) (* torn final line *)
          else fail "%s:%d: %s" path (i + 1) m)
  in
  go 0 [] lines

(* A counters summary of one node's log, if it shut down cleanly enough
   to write one. Unreadable files and torn lines read as "no summary".
   [extract] judges each parsed line; the last match wins. *)
let scan_summary path extract =
  match
    let ic = open_in path in
    let found = ref None in
    (try
       while true do
         let line = input_line ic in
         match J.of_string line with
         | Ok j -> ( match extract j with None -> () | some -> found := some)
         | Error _ -> ()
       done
     with End_of_file -> close_in ic);
    !found
  with
  | exception Sys_error _ -> None
  | r -> r

let counters_of_json j =
  Option.map
    (List.filter_map (fun (k, v) ->
         Option.map (fun n -> (k, n)) (J.to_int_opt v)))
    (Option.bind (J.member "counters" j) J.to_obj_opt)

let read_arq path =
  scan_summary path (fun j ->
      if J.member "arq" j <> None then counters_of_json j else None)

let read_transport path =
  scan_summary path (fun j ->
      match
        (J.member "transport" j, Option.bind (J.member "kind" j) J.to_string_opt)
      with
      | Some _, Some kind ->
        Option.map (fun cs -> (kind, cs)) (counters_of_json j)
      | _ -> None)

let read_metrics path =
  Option.bind
    (scan_summary path (fun j ->
         match J.member "metrics" j with
         | Some _ -> J.member "snapshot" j
         | None -> None))
    (fun snap -> Result.to_option (Gmp_obs.Obs.Snapshot.of_json snap))

(* ---- reassembly ---- *)

let compare_events (a : Trace.event) (b : Trace.event) =
  match Float.compare a.time b.time with
  | 0 -> (
    match Pid.compare a.owner b.owner with
    | 0 -> Int.compare a.index b.index
    | c -> c)
  | c -> c

let reassemble per_node =
  let all = List.concat per_node in
  let sorted = List.stable_sort compare_events all in
  let trace = Trace.create () in
  List.iter
    (fun (e : Trace.event) ->
      Trace.record trace ~owner:e.owner ~index:e.index ~time:e.time ~vc:e.vc
        e.kind)
    sorted;
  trace

let read_and_reassemble paths =
  let* per_node = map_result read_file paths in
  Ok (reassemble per_node)
