(* The live workloads (live-load-udp, live-load-tcp, live-faults-tcp) and
   the live probe.

   Every member is its own single-threaded OS process, gmpbench forked and
   exec'd afresh, running [Member] on [Node] exactly as
   gmp-node does: a real transport on loopback, wall-clock timers, the
   go-back-N ARQ, netem at ingress, and a JSONL event log per member
   through [Trace_io]. The load comes from the members themselves: one
   timer each sends every application message that is due (an open loop at
   a fixed rate), so a stall makes later messages late instead of
   unsent, and each latency counts from the message's due time, not from
   when it was sent.

   The parent only orchestrates: it allocates ports, starts the members,
   sends them the common start time over a pipe, kills and respawns on
   the fault schedule, waits until every member has seen all its frames
   acknowledged, and then reads the members' result files and event logs
   and judges the run. *)

open Gmp_base
open Gmp_core
module Node = Gmp_live.Node
module Transport = Gmp_live.Transport
module Trace_io = Gmp_live.Trace_io
module Codec = Gmp_live.Codec
module Stats = Gmp_platform.Stats
module Netem = Gmp_net.Netem
module Endpoint = Gmp_net.Endpoint
module Obs = Gmp_obs.Obs

type cfg = {
  transport : Transport.kind;
  members : int;
  rate : float;  (** application messages per second, per member *)
  warmup : float;  (** seconds of load before the measured window *)
  netem : Netem.t;
  kill_period : float option;
      (** kill the most junior member this often (first kill 0.5 s into
          the window, none within 4 s of its end) and rejoin it at once as
          a fresh incarnation *)
}

(* Every live workload runs gmp-node's detector defaults. *)
let config =
  { Config.default with Config.heartbeat_interval = 0.5; heartbeat_timeout = 2.5 }

let live_load_udp =
  { transport = Transport.Udp;
    members = 3;
    rate = 2000.0;
    warmup = 2.0;
    netem = Netem.none;
    kill_period = None }

let live_load_tcp = { live_load_udp with transport = Transport.Tcp }

let live_faults_tcp =
  { transport = Transport.Tcp;
    members = 5;
    rate = 20.0;
    warmup = 2.0;
    netem = Netem.of_latency ~loss:0.01 0.02;
    kill_period = Some 3.5 }

(* The probe for workloads that run no live group. *)
let probe_cfg = { live_load_udp with rate = 500.0; warmup = 0.3 }
let probe_measure = 0.7

(* ---- what a member reports ---- *)

(* The measured window is cut into sub-windows of about a second; the
   end-to-end numbers are medians over them, so a burst of interference
   from outside the run moves one sub-window, not the result. *)
let sub_windows measure = if measure >= 2.0 then int_of_float measure else 1

type result = {
  r_pid : Pid.t;
  r_cpu_at : (float * float) array;
      (** user and system CPU seconds at each sub-window boundary *)
  r_latency : float array array;
      (** due to delivered, per sub-window of the due time *)
  r_delivered : int array;  (** messages delivered here, per sub-window *)
  r_last_delivery : float;  (** when the last window message arrived *)
  r_late : float array;  (** generator lateness, messages due in the window *)
  r_sent : (Pid.t * (int * int) list) list;  (** per destination, runs of k *)
  r_received : (Pid.t * (int * int) list) list;  (** per source, runs of k *)
  r_fifo_violations : int;
  r_window_overhead : int;  (** heartbeat and protocol sends in the window *)
  r_spans : Tracer.summary;  (** inside the window *)
  r_obs_snapshot_s : float;
  r_heap_mb : float;
}

(* Runs of consecutive message numbers, newest first. *)
let add_run runs k =
  match runs with
  | (lo, hi) :: rest when k = hi + 1 -> (lo, k) :: rest
  | _ -> (k, k) :: runs

(* The 64-byte payload: message number, then due time. *)
let payload k due =
  let b = Bytes.make 64 '.' in
  Bytes.set_int64_le b 0 (Int64.of_int k);
  Bytes.set_int64_le b 8 (Int64.bits_of_float due);
  Codec.Blob (Bytes.unsafe_to_string b)

let decode s =
  (Int64.to_int (String.get_int64_le s 0), Int64.float_of_bits (String.get_int64_le s 8))

(* ---- pipes between parent and members ---- *)

(* A line to a process that has died is lost: the checks that follow
   (readiness, draining, exit status, results) report the death. *)
let write_line fd s =
  let s = s ^ "\n" in
  try ignore (Unix.write_substring fd s 0 (String.length s) : int)
  with Unix.Unix_error (Unix.EPIPE, _, _) -> ()

(* One line from [fd], or [None] on timeout or end of file. *)
let read_line ?(timeout = 60.0) fd =
  let deadline = Meter.wall () +. timeout in
  let buf = Buffer.create 32 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Meter.wall () in
    if left <= 0.0 then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd byte 0 1 with
        | 0 -> None
        | _ ->
          let c = Bytes.get byte 0 in
          if c = '\n' then Some (Buffer.contents buf)
          else (
            Buffer.add_char buf c;
            go ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let readable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* ---- the member process ---- *)

type spec = {
  cfg : cfg;
  seed : int;
  pid : Pid.t;
  joiner : bool;
  initial : Pid.t list;
  contacts : Pid.t list;
  book : (Pid.t * int) list;  (** every pid's loopback port *)
  dir : string;
  traced : bool;
  measure : float;
}

let log_path dir pid = Filename.concat dir (Pid.to_string pid ^ ".jsonl")
let result_path dir pid = Filename.concat dir (Pid.to_string pid ^ ".res")

let member_main spec ~from_parent ~to_parent =
  let cfg = spec.cfg in
  let port = List.assoc spec.pid spec.book in
  let peers =
    List.filter_map
      (fun (p, port) -> if Pid.equal p spec.pid then None else Some (p, Endpoint.loopback ~port))
      spec.book
  in
  let node =
    Node.create ~peers ~transport:cfg.transport ~netem:cfg.netem ~netem_seed:spec.seed
      ~pid:spec.pid ~bind:(Endpoint.loopback ~port) ()
  in
  let trace = Trace.create () in
  let writer = Trace_io.attach trace ~path:(log_path spec.dir spec.pid) in
  let raw = Node.platform node in
  let tracer = Tracer.create () in
  let platform = if spec.traced then Tracer.wrap tracer raw else raw in
  let m = Member.create ~joiner:spec.joiner ~node:platform ~trace ~config ~initial:spec.initial () in
  let write_metrics () =
    Trace_io.write_metrics writer ~pid:spec.pid ~at:(raw.now ()) (Node.metrics node)
  in
  raw.every ~interval:1.0 write_metrics;
  if spec.joiner then Member.start_join ~retry_interval:1.0 m ~contacts:spec.contacts;
  let t0 =
    if spec.joiner then
      match read_line from_parent with
      | Some s -> float_of_string s
      | None -> Unix._exit 3
    else begin
      write_line to_parent "R";
      match read_line from_parent with
      | Some s when s <> "Q" -> float_of_string s
      | _ ->
        Node.close node;
        Unix._exit 0
    end
  in
  let w0 = t0 +. cfg.warmup in
  let w1 = w0 +. spec.measure in
  let nsub = sub_windows spec.measure in
  let sub_len = spec.measure /. float_of_int nsub in
  let slot due =
    if due < w0 || due >= w1 then -1 else min (nsub - 1) (int_of_float ((due -. w0) /. sub_len))
  in
  (* receiving *)
  let received = Pid.Tbl.create 8 and last = Pid.Tbl.create 8 in
  let latency = Array.init nsub (fun _ -> Meter.Samples.create ()) in
  let delivered = Array.make nsub 0 and last_delivery = ref 0.0 and fifo = ref 0 in
  Member.set_app_handler m (fun ~src app ->
      match app with
      | Codec.Blob s ->
        let k, due = decode s in
        let now = raw.now () in
        (match Pid.Tbl.find_opt last src with
        | Some l when k <= l -> incr fifo
        | _ -> ());
        Pid.Tbl.replace last src k;
        Pid.Tbl.replace received src
          (add_run (Option.value (Pid.Tbl.find_opt received src) ~default:[]) k);
        let i = slot due in
        if i >= 0 then begin
          Meter.Samples.add latency.(i) (now -. due);
          delivered.(i) <- delivered.(i) + 1;
          last_delivery := now
        end
      | _ -> ());
  (* sending: the targets [Member.broadcast_app] addresses *)
  let sent = Pid.Tbl.create 8 and late = Meter.Samples.create () in
  let targets () =
    let self = Member.pid m and faulty = Member.faulty_set m in
    List.filter
      (fun p -> not (Pid.equal p self || Pid.Set.mem p faulty))
      (View.members (Member.view m))
  in
  let due k = t0 +. (float_of_int k /. cfg.rate) in
  let next = ref (max 0 (int_of_float (Float.ceil ((raw.now () -. t0) *. cfg.rate)))) in
  let rec generate () =
    let now = raw.now () in
    while due !next <= now && due !next < w1 do
      let k = !next and d = due !next in
      incr next;
      if Member.operational m && Member.joined m then begin
        List.iter
          (fun p ->
            Pid.Tbl.replace sent p
              (add_run (Option.value (Pid.Tbl.find_opt sent p) ~default:[]) k))
          (targets ());
        if slot d >= 0 then Meter.Samples.add late (now -. d);
        Member.broadcast_app m (payload k d)
      end
    done;
    if due !next < w1 then
      ignore (raw.set_timer ~delay:(Float.max 0.0 (due !next -. raw.now ())) generate
               : Gmp_platform.Platform.timer)
  in
  generate ();
  (* the measured window *)
  let stats = Node.stats node in
  let overhead () =
    Stats.sent stats ~category:(Wire.category Wire.Heartbeat)
    + List.fold_left (fun acc category -> acc + Stats.sent stats ~category) 0 Wire.protocol_categories
  in
  let cpu_at = Array.make (nsub + 1) (0.0, 0.0) in
  let ov0 = ref 0 and ov1 = ref 0 and spans = ref Tracer.empty_summary in
  let at time f =
    ignore (raw.set_timer ~delay:(Float.max 0.0 (time -. raw.now ())) f
             : Gmp_platform.Platform.timer)
  in
  for i = 0 to nsub do
    at (w0 +. (float_of_int i *. sub_len)) (fun () ->
        cpu_at.(i) <- Meter.cpu ();
        if i = 0 then begin
          ov0 := overhead ();
          Tracer.reset tracer
        end;
        if i = nsub then begin
          ov1 := overhead ();
          spans := Tracer.summary tracer
        end)
  done;
  let run_for d = if Node.alive node then Node.run ~until:d node else Unix.sleepf d in
  run_for (Float.max 0.0 (w1 -. raw.now ()));
  (* drain: report once everything this member sent is acknowledged, keep
     acknowledging others until the parent says the run is over *)
  let idle_reported = ref false and over = ref false in
  while not !over do
    run_for 0.02;
    if (not !idle_reported) && raw.now () >= w1 && Node.idle node then begin
      write_line to_parent "I";
      idle_reported := true
    end;
    if readable from_parent then over := true
  done;
  let obs_s =
    Meter.median
      (Array.init 5 (fun _ ->
           let _, ns = Meter.time_ns (fun () -> Node.metrics node) in
           float_of_int ns /. 1e9))
  in
  let runs tbl = Pid.Tbl.fold (fun p r acc -> (p, r) :: acc) tbl [] in
  let result =
    { r_pid = spec.pid;
      r_cpu_at = cpu_at;
      r_latency = Array.map Meter.Samples.to_array latency;
      r_delivered = delivered;
      r_last_delivery = !last_delivery;
      r_late = Meter.Samples.to_array late;
      r_sent = runs sent;
      r_received = runs received;
      r_fifo_violations = !fifo;
      r_window_overhead = !ov1 - !ov0;
      r_spans = !spans;
      r_obs_snapshot_s = obs_s;
      r_heap_mb = Meter.peak_heap_mb () }
  in
  let oc = open_out_bin (result_path spec.dir spec.pid) in
  Marshal.to_channel oc result [];
  close_out oc;
  write_metrics ();
  Trace_io.close writer;
  Node.close node

(* ---- the parent ---- *)

type proc = {
  p_pid : Pid.t;
  ospid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  mutable gone : bool;  (** reaped *)
  mutable killed : bool;
}

(* Members not yet reaped. *)
let running : proc list ref = ref []

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let spec_path dir pid = Filename.concat dir (Pid.to_string pid ^ ".spec")

(* A member process: gmpbench exec'd as [gmpbench member SPEC], with its
   pipes from the parent on stdin and stdout. Returns the exit code. *)
let member_process path =
  let spec : spec = In_channel.with_open_bin path Marshal.from_channel in
  try
    member_main spec ~from_parent:Unix.stdin ~to_parent:Unix.stdout;
    0
  with e ->
    prerr_endline
      (Printf.sprintf "gmpbench: member %s: %s" (Pid.to_string spec.pid) (Printexc.to_string e));
    2

(* The forked child execs gmpbench itself, so every member starts from a
   fresh runtime: what it measures, its heap above all, does not depend on
   what the parent ran before (a forked member's peak heap grew from 4.6
   to 6.6 MB with the number of set-ups the parent had rehearsed). Every
   pipe end is close-on-exec except the two the child moves onto its stdin
   and stdout. *)
let spawn spec =
  let path = spec_path spec.dir spec.pid in
  Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc spec []);
  let c_in, p_out = Unix.pipe ~cloexec:true () and p_in, c_out = Unix.pipe ~cloexec:true () in
  let onto fd target =
    if fd = target then Unix.clear_close_on_exec fd else Unix.dup2 ~cloexec:false fd target
  in
  flush_all ();
  match Unix.fork () with
  | 0 -> (
    try
      onto c_in Unix.stdin;
      onto c_out Unix.stdout;
      Unix.execv Sys.executable_name [| Sys.executable_name; "member"; path |]
    with _ -> Unix._exit 127)
  | ospid ->
    Unix.close c_in;
    Unix.close c_out;
    let p = { p_pid = spec.pid; ospid; to_child = p_out; from_child = p_in; gone = false; killed = false } in
    running := p :: !running;
    p

let forget_fds p =
  close_quietly p.to_child;
  close_quietly p.from_child

let reap ?(grace = 10.0) p =
  if not p.gone then begin
    let deadline = Meter.wall () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] p.ospid with
      | 0, _ ->
        if Meter.wall () > deadline then begin
          (try Unix.kill p.ospid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.ospid : int * Unix.process_status);
          Some (Unix.WSIGNALED Sys.sigkill)
        end
        else (
          Unix.sleepf 0.001;
          wait ())
      | _, status -> Some status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status = wait () in
    p.gone <- true;
    running := List.filter (fun q -> q != p) !running;
    forget_fds p;
    status
  end
  else None

let kill p =
  (try Unix.kill p.ospid Sys.sigkill with Unix.Unix_error _ -> ());
  p.killed <- true;
  ignore (reap p : Unix.process_status option)

(* A parent told to stop (SIGTERM, SIGINT) kills and reaps its members
   before it exits. A write to a dead member's pipe or socket fails with
   EPIPE instead of killing the writer, in the parent and, inherited, in
   every member. *)
let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () -> List.iter kill !running);
  List.iter
    (fun (signal, code) -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigterm, 143); (Sys.sigint, 130) ]

(* Ports for a whole address book, on the socket type the transport will
   use. They are drawn below Linux's default ephemeral range (32768 and
   up), so no connection a member opens can take the port of a member not
   yet started; each is test-bound, and all are held until the book is
   complete, so they are distinct. The draw is not seeded by the run: it
   picks where the members listen, not what they do. *)
let port_rng = lazy (Random.State.make_self_init ())

let alloc_ports kind count =
  let ty = match kind with Transport.Udp -> Unix.SOCK_DGRAM | Transport.Tcp -> Unix.SOCK_STREAM in
  let rng = Lazy.force port_rng in
  let rec take held tries =
    if List.length held = count then held
    else if tries = 0 then failwith "no free loopback port"
    else
      let port = 20000 + Random.State.int rng 12000 in
      let s = Unix.socket Unix.PF_INET ty 0 in
      match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> take ((port, s) :: held) (tries - 1)
      | exception Unix.Unix_error _ ->
        Unix.close s;
        take held (tries - 1)
  in
  let held = take [] 10_000 in
  List.iter (fun (_, s) -> Unix.close s) held;
  List.rev_map fst held

(* How long a victim stays frozen before it is killed. *)
let freeze = 0.1

(* Kill instants, relative to the window start. *)
let kill_offsets cfg ~measure =
  match cfg.kill_period with
  | None -> []
  | Some period ->
    let rec go t acc = if t +. 4.0 > measure then List.rev acc else go (t +. period) (t :: acc) in
    go 0.5 []

(* The most junior member and its successive incarnations. *)
let lineage cfg ~kills =
  let first = Pid.make (cfg.members - 1) in
  List.init (kills + 1) (fun i -> Pid.make ~incarnation:i (Pid.id first))

(* Start the initial members and wait until each has bound its socket and
   created its member: the set-up time a run reports. *)
let start_members cfg ~seed ~dir ~traced ~measure ~book =
  let initial = Pid.group cfg.members in
  let t_start = Meter.wall () in
  let procs =
    List.map
      (fun pid ->
        spawn
          { cfg; seed; pid; joiner = false; initial; contacts = []; book; dir; traced; measure })
      initial
  in
  let ready = List.for_all (fun p -> read_line p.from_child = Some "R") procs in
  (procs, ready, Meter.wall () -. t_start)

let book_for cfg ~kills =
  let pids = Pid.group cfg.members @ List.tl (lineage cfg ~kills) in
  List.combine pids (alloc_ports cfg.transport (List.length pids))

(* A set-up rehearsal: members that come up and are told to quit. One takes
   a few milliseconds and single ones vary by tens of percent with the
   scheduler, so the reported set-up is the median of many. *)
let rehearsal_count = 40

let rehearse cfg ~seed ~dir o =
  let book = book_for cfg ~kills:0 in
  let procs, ready, took = start_members cfg ~seed ~dir ~traced:false ~measure:1.0 ~book in
  List.iter (fun p -> write_line p.to_child "Q") procs;
  List.iter (fun p -> ignore (reap p : Unix.process_status option)) procs;
  Outcome.check o ready "a member did not come up";
  took

type cluster = {
  initial : Pid.t list;
  results : result list;  (** members alive at the end *)
  trace : Trace.t;
  snapshots : Obs.Snapshot.t list;  (** each member's last metrics line *)
  kills : (Pid.t * float) list;
  survivors : Pid.t list;
  setup_s : float;
  reassemble_s : float;
  w0 : float;  (** the measured window's start, wall clock *)
  measure : float;
}

let last_install events =
  List.fold_left
    (fun acc (e : Trace.event) ->
      match e.kind with
      | Trace.Installed { ver; view_members } -> Some (ver, view_members)
      | _ -> acc)
    None events

let run_cluster cfg ~seed ~measure ~traced ~dir o =
  let offsets = kill_offsets cfg ~measure in
  let lineage = lineage cfg ~kills:(List.length offsets) in
  let book = book_for cfg ~kills:(List.length offsets) in
  let initial = Pid.group cfg.members in
  let procs, ready, setup_s = start_members cfg ~seed ~dir ~traced ~measure ~book in
  let all = ref procs in
  Fun.protect
    ~finally:(fun () -> List.iter kill (List.filter (fun p -> not p.gone) !all))
    (fun () ->
      if not ready then failwith "a member did not come up";
      let t0 = Meter.wall () +. 0.05 in
      let go = Printf.sprintf "%.6f" t0 in
      List.iter (fun p -> write_line p.to_child go) procs;
      let w0 = t0 +. cfg.warmup in
      let sleep_until t =
        let d = t -. Meter.wall () in
        if d > 0.0 then Unix.sleepf d
      in
      let kills =
        List.mapi
          (fun i off ->
            sleep_until (w0 +. off);
            let victim = List.nth lineage i in
            let p = List.find (fun p -> Pid.equal p.p_pid victim) !all in
            (* Freeze, then kill: the victim is dead to its peers from the
               SIGSTOP on, and by the SIGKILL no frame of its is still in
               a survivor's netem delay, so no survivor sees one arrive
               over a connection that has since closed (Transport would
               adopt the closed connection as the victim's route, and
               later close its file descriptor a second time). *)
            (try Unix.kill p.ospid Sys.sigstop with Unix.Unix_error _ -> ());
            let at = Meter.wall () in
            Unix.sleepf freeze;
            kill p;
            let successor = List.nth lineage (i + 1) in
            let contacts = List.filter (fun q -> Pid.id q <> Pid.id victim) initial in
            let j =
              spawn
                { cfg; seed; pid = successor; joiner = true; initial; contacts; book; dir; traced; measure }
            in
            write_line j.to_child go;
            all := !all @ [ j ];
            (victim, at))
          offsets
      in
      sleep_until (w0 +. measure);
      let live = List.filter (fun p -> not p.killed) !all in
      let deadline = Meter.wall () +. 15.0 in
      List.iter
        (fun p ->
          if read_line ~timeout:(Float.max 0.01 (deadline -. Meter.wall ())) p.from_child <> Some "I"
          then Outcome.error o ("member never drained: " ^ Pid.to_string p.p_pid))
        live;
      List.iter (fun p -> write_line p.to_child "E") live;
      List.iter
        (fun p ->
          match reap p with
          | Some (Unix.WEXITED 0) -> ()
          | _ -> Outcome.error o ("member exited abnormally: " ^ Pid.to_string p.p_pid))
        live;
      let results =
        List.filter_map
          (fun p ->
            let path = result_path dir p.p_pid in
            if Sys.file_exists path then begin
              let ic = open_in_bin path in
              let (r : result) = Marshal.from_channel ic in
              close_in ic;
              Some r
            end
            else (
              Outcome.error o ("no result from " ^ Pid.to_string p.p_pid);
              None))
          live
      in
      let logs = List.map (fun p -> log_path dir p.p_pid) !all in
      let reassembled, ns = Meter.time_ns (fun () -> Trace_io.read_and_reassemble logs) in
      let trace =
        match reassembled with
        | Ok t -> t
        | Error m ->
          Outcome.error o ("trace_io: " ^ m);
          Trace.create ()
      in
      { initial;
        results;
        trace;
        snapshots = List.filter_map Trace_io.read_metrics logs;
        kills;
        survivors = List.map (fun p -> p.p_pid) live;
        setup_s;
        reassemble_s = float_of_int ns /. 1e9;
        w0;
        measure })

(* ---- judging a run ---- *)

let result_of c p = List.find_opt (fun r -> Pid.equal r.r_pid p) c.results

let surviving_views c =
  List.filter_map
    (fun p ->
      match last_install (Trace.by_owner c.trace p) with
      | Some (ver, ms) -> Some (p, ver, ms)
      | None -> None)
    c.survivors

let set_of runs =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun (lo, hi) ->
      for k = lo to hi do
        Hashtbl.replace h k ()
      done)
    runs;
  h

(* Messages in [a] but not in [b]. *)
let missing a b = Hashtbl.fold (fun k () n -> if Hashtbl.mem b k then n else n + 1) a 0

(* The run's correctness: the logs reassembled through Trace_io are
   checker-clean (safety and liveness), every killed member is out of every
   survivor's final view, and between survivors every application message
   was delivered exactly once and in order. Operations attempted: the
   messages addressed by a survivor to a survivor, and the kills. *)
let verdict c =
  let views = surviving_views c in
  let final_view =
    match views with
    | (_, v0, m0) :: rest when List.for_all (fun (_, v, m) -> v = v0 && m = m0) rest -> m0
    | _ -> []
  in
  Checker.check_run ~liveness:true c.trace ~initial:c.initial ~surviving_views:views
    ~dead:(List.map fst c.kills) ~final_view

let judge o c =
  let dead = List.map fst c.kills in
  let views = surviving_views c in
  List.iter
    (fun (v : Checker.violation) ->
      Outcome.error o (Printf.sprintf "checker: %s: %s" v.property v.detail))
    (verdict c);
  let kept =
    List.filter (fun p -> List.exists (fun (_, _, ms) -> List.exists (Pid.equal p) ms) views) dead
  in
  List.iter (fun p -> Outcome.error o ("killed member not excluded: " ^ Pid.to_string p)) kept;
  let attempted = ref (List.length dead) and failed = ref (List.length kept) in
  List.iter
    (fun (r : result) ->
      if r.r_fifo_violations > 0 then begin
        Outcome.error o
          (Printf.sprintf "%s delivered %d messages out of order or twice"
             (Pid.to_string r.r_pid) r.r_fifo_violations);
        failed := !failed + r.r_fifo_violations
      end;
      List.iter
        (fun (dst, runs) ->
          match result_of c dst with
          | None -> ()
          | Some d ->
            let sent = set_of runs in
            let got =
              set_of (Option.value (List.assoc_opt r.r_pid d.r_received) ~default:[])
            in
            attempted := !attempted + Hashtbl.length sent;
            let lost = missing sent got and extra = missing got sent in
            if lost + extra > 0 then begin
              Outcome.error o
                (Printf.sprintf "%s -> %s: %d messages lost, %d unexpected"
                   (Pid.to_string r.r_pid) (Pid.to_string dst) lost extra);
              failed := !failed + lost + extra
            end)
        r.r_sent)
    c.results;
  Outcome.attempt o ~attempted:!attempted ~failed:!failed

let samples_of o c =
  let s = Samples.derive ~crashes:c.kills c.trace in
  Outcome.check_result o (Samples.cross_check ~crashes:c.kills c.trace s);
  s

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sum_array = Array.fold_left ( + ) 0

(* CPU seconds of one member between sub-window boundaries [i] and [j]. *)
let cpu_between ?(sys_only = false) r i j =
  let u0, s0 = r.r_cpu_at.(i) and u1, s1 = r.r_cpu_at.(j) in
  if sys_only then s1 -. s0 else u1 -. u0 +. (s1 -. s0)

let nsub c = sub_windows c.measure
let cpu_of r = cpu_between r 0 (Array.length r.r_cpu_at - 1)
let delivered c = List.fold_left (fun acc r -> acc + sum_array r.r_delivered) 0 c.results
let cpu_per_msg c = sumf cpu_of c.results /. float_of_int (delivered c)
let all_of f c = Array.concat (List.map f c.results)

(* A value per sub-window with deliveries, and their median. *)
let median_over_windows c f =
  let vs =
    List.filter_map
      (fun i ->
        let n = List.fold_left (fun acc r -> acc + r.r_delivered.(i)) 0 c.results in
        if n = 0 then None else Some (f i n))
      (List.init (nsub c) Fun.id)
  in
  Meter.median (Array.of_list vs)

(* ---- end to end ---- *)

let run_e2e cfg ~seed ~seconds o =
  Rundir.with_dir "live" (fun dir ->
      let rehearsals = List.init rehearsal_count (fun _ -> rehearse cfg ~seed ~dir o) in
      let c = run_cluster cfg ~seed ~measure:seconds ~traced:false ~dir o in
      judge o c;
      ignore (samples_of o c : Samples.t);
      let latency q =
        median_over_windows c (fun i _ ->
            1000.0 *. Meter.quantile (all_of (fun r -> r.r_latency.(i)) c) q)
      in
      let last = List.fold_left (fun acc r -> Float.max acc r.r_last_delivery) 0.0 c.results in
      Outcome.param o "members" (Json.int cfg.members);
      Outcome.param o "rate" (Json.float cfg.rate);
      Outcome.param o "kills" (Json.int (List.length c.kills));
      Metrics.set_all o.Outcome.sheet
        [ ("setup_s", Meter.median (Array.of_list (c.setup_s :: rehearsals)));
          ("throughput_per_s", float_of_int (delivered c) /. (last -. c.w0));
          ( "cpu_us_per_op",
            median_over_windows c (fun i n ->
                1e6 *. sumf (fun r -> cpu_between r i (i + 1)) c.results /. float_of_int n) );
          ("latency_p50_ms", latency 0.5);
          ("latency_p90_ms", latency 0.9);
          ("peak_heap_mb", List.fold_left (fun acc r -> Float.max acc r.r_heap_mb) 0.0 c.results) ])

(* ---- per layer ---- *)

let counter snap name =
  match Obs.Snapshot.find snap name with Some (Obs.Snapshot.Counter n) -> n | _ -> 0

let sum_counters snap suffix =
  List.fold_left
    (fun acc (name, m) ->
      match m with
      | Obs.Snapshot.Counter n when Filename.check_suffix name suffix -> acc + n
      | _ -> acc)
    0 (Obs.Snapshot.metrics snap)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let ms xs q = 1000.0 *. Meter.quantile (Array.of_list xs) q
let seconds_of f = float_of_int (snd (Meter.time_ns f)) /. 1e9

(* Rows from an untraced cluster [u] (counts, CPU, correctness-side
   timings) and a traced one [t] (spans). The protocol rows exist only
   where the run changed views. *)
let cluster_rows o ~u ~t =
  let snap = Obs.Snapshot.merge_all u.snapshots in
  let spans = List.fold_left (fun acc r -> Tracer.add acc r.r_spans) Tracer.empty_summary t.results in
  let members = float_of_int (List.length u.results) in
  let views =
    List.fold_left (fun acc (_, ver, _) -> max acc ver) 0 (Trace.installs u.trace)
  in
  let protocol =
    List.fold_left
      (fun acc c -> acc + counter snap ("msg." ^ c ^ ".sent"))
      0 Wire.protocol_categories
  in
  let rtt_ms =
    match Obs.Snapshot.find snap "arq.rtt" with
    | Some (Obs.Snapshot.Histogram h) when Obs.Snapshot.count h > 0 ->
      1000.0 *. h.Obs.Snapshot.sum /. float_of_int (Obs.Snapshot.count h)
    | _ -> 0.0
  in
  let s = samples_of o u in
  let crash_rows =
    if u.kills = [] then []
    else
      [ ("member.protocol_msgs_per_change", ratio protocol views);
        ("member.convergence_p50_ms", ms s.Samples.convergence 0.5);
        ("member.convergence_p95_ms", ms s.Samples.convergence 0.95);
        ("detector.detection_p50_ms", ms s.Samples.detection 0.5) ]
  in
  crash_rows
  @ Tracer.rows spans
  @ [ ("node.loop_self_frac", 1.0 -. (float_of_int spans.Tracer.top_ns /. 1e9 /. sumf cpu_of t.results));
      ("cpu.node_frac", sumf cpu_of u.results /. (u.measure *. members));
      ( "cpu.sys_frac",
        sumf (fun r -> cpu_between ~sys_only:true r 0 (nsub u)) u.results /. sumf cpu_of u.results );
      ("network.msgs_sent_heartbeat", float_of_int (counter snap "msg.heartbeat.sent"));
      ("network.msgs_sent_protocol", float_of_int protocol);
      ("network.msgs_dropped", float_of_int (sum_counters snap ".dropped"));
      ( "network.overhead_msgs_per_member_s",
        float_of_int (List.fold_left (fun acc r -> acc + r.r_window_overhead) 0 u.results)
        /. (u.measure *. members) );
      ("detector.false_suspicions", float_of_int (Samples.false_suspicions ~crashes:u.kills u.trace));
      ("checker.check_s", seconds_of (fun () -> ignore (verdict u : Checker.violation list)));
      ("latency.observe_s", seconds_of (fun () -> Latency.observe ~crashes:u.kills (Obs.create ()) u.trace));
      ("obs.snapshot_us", 1e6 *. sumf (fun r -> r.r_obs_snapshot_s) u.results /. members);
      ( "transport.frames_sent",
        float_of_int (counter snap "transport.frames_sent" + counter snap "transport.datagrams_sent") );
      ("transport.reconnects", float_of_int (counter snap "transport.reconnects"));
      ("transport.half_open_drops", float_of_int (counter snap "transport.half_open_drops"));
      ( "arq.retransmits_per_1k_frames",
        1000.0 *. ratio (counter snap "arq.retransmits") (counter snap "arq.data_frames_sent") );
      ("arq.dups_suppressed", float_of_int (counter snap "arq.dups_suppressed"));
      ("arq.out_of_window_drops", float_of_int (counter snap "arq.out_of_window_drops"));
      ("arq.rtt_mean_ms", rtt_ms);
      ("netem.dropped", float_of_int (counter snap "netem.dropped"));
      ("trace_io.reassemble_s", u.reassemble_s);
      ("gen.late_ms_p99", 1000.0 *. Meter.quantile (all_of (fun r -> r.r_late) u) 0.99) ]

(* Each half of the run is one cluster: untraced first, then traced. *)
let layer_rows cfg ~seed ~seconds o =
  let half = seconds /. 2.0 in
  let cluster ~traced =
    Rundir.with_dir "live" (fun dir ->
        let c = run_cluster cfg ~seed ~measure:half ~traced ~dir o in
        judge o c;
        c)
  in
  let u = cluster ~traced:false in
  let t = cluster ~traced:true in
  Metrics.set_all o.Outcome.sheet
    (("tracing.overhead_frac", (cpu_per_msg t /. cpu_per_msg u) -. 1.0) :: cluster_rows o ~u ~t)

(* The live rows for a workload that runs no live group: a short traced
   load run of three members on UDP. *)
let probe ~seed o =
  let p = Outcome.create () in
  Rundir.with_dir "live" (fun dir ->
      let c = run_cluster probe_cfg ~seed ~measure:probe_measure ~traced:true ~dir p in
      judge p c;
      Metrics.set_absent_all o.Outcome.sheet (cluster_rows p ~u:c ~t:c));
  List.iter (Outcome.error o) p.Outcome.errors

