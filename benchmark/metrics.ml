(* The benchmark's metric vocabulary, and the sheet a run fills in.

   Every name here is listed in BENCHMARK.json with the same unit; the
   smoke alias checks the two agree. Every run reports every metric of its
   mode, on every workload: the end-to-end ones are defined per workload
   (README.md, "End-to-end metrics"), and a per-layer row whose layer the
   workload does not exercise is filled by a probe of that layer shaped
   like the workload (README.md, "Per-layer metrics"). *)

let end_to_end =
  [ ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("cpu_us_per_op", "us");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_heap_mb", "MB") ]

let per_layer =
  [ (* lib/sim engine, lib/net network, lib/runtime dispatch *)
    ("engine.events_fired", "count");
    ("engine.peak_heap_entries", "count");
    ("engine.self_ns_per_event", "ns");
    ("alloc.minor_words_per_event", "words");
    (* the Platform record the member runs on (Runtime or Node) *)
    ("platform.send_ns_per_msg", "ns");
    ("platform.broadcast_fanout", "msgs");
    ("platform.timer_callback_ns", "ns");
    (* lib/core Member *)
    ("member.deliveries", "count");
    ("member.handler_ns_per_delivery", "ns");
    ("member.protocol_msgs_per_change", "msgs");
    ("member.convergence_p50_ms", "ms");
    ("member.convergence_p95_ms", "ms");
    (* per-category send accounting (Stats) *)
    ("network.msgs_sent_heartbeat", "count");
    ("network.msgs_sent_protocol", "count");
    ("network.msgs_dropped", "count");
    ("network.overhead_msgs_per_member_s", "1/s");
    (* lib/detector Heartbeat *)
    ("detector.detection_p50_ms", "ms");
    ("detector.false_suspicions", "count");
    (* lib/core Checker and Latency, lib/obs *)
    ("checker.check_s", "s");
    ("latency.observe_s", "s");
    ("obs.snapshot_us", "us");
    (* lib/explore *)
    ("explore.executions", "count");
    ("explore.distinct", "count");
    ("explore.frames", "count");
    ("explore.state_pruned", "count");
    ("explore.sleep_pruned", "count");
    ("explore.distinct_per_execution", "ratio");
    ("explore.ns_per_frame", "ns");
    ("alloc.minor_words_per_execution", "words");
    (* lib/live Node loop and member processes *)
    ("node.loop_self_frac", "frac");
    ("cpu.node_frac", "frac");
    ("cpu.sys_frac", "frac");
    (* lib/live Codec, Framing, Transport, ARQ; lib/net Netem *)
    ("codec.encode_data_ns", "ns");
    ("codec.decode_data_ns", "ns");
    ("codec.encode_ack_ns", "ns");
    ("codec.decode_ack_ns", "ns");
    ("codec.minor_words_per_frame", "words");
    ("framing.feed_ns_per_frame", "ns");
    ("transport.frames_sent", "count");
    ("transport.reconnects", "count");
    ("transport.half_open_drops", "count");
    ("arq.retransmits_per_1k_frames", "count");
    ("arq.dups_suppressed", "count");
    ("arq.out_of_window_drops", "count");
    ("arq.rtt_mean_ms", "ms");
    ("netem.dropped", "count");
    (* lib/live Trace_io, the load generator, the tracer itself *)
    ("trace_io.write_us_per_event", "us");
    ("trace_io.reassemble_s", "s");
    ("gen.late_ms_p99", "ms");
    ("tracing.overhead_frac", "frac") ]

type sheet = (string, float) Hashtbl.t

let sheet () : sheet = Hashtbl.create 64
let set (s : sheet) name v = Hashtbl.replace s name v

(* Fill a row only if the workload itself has not: how probes add the
   layers a workload does not exercise. *)
let set_absent (s : sheet) name v =
  if not (Hashtbl.mem s name) then Hashtbl.replace s name v

let set_all (s : sheet) rows = List.iter (fun (k, v) -> set s k v) rows
let set_absent_all (s : sheet) rows = List.iter (fun (k, v) -> set_absent s k v) rows

(* Catalog rows, in catalog order, with units; [Error] names the first
   row the run did not fill (a benchmark bug, never a measurement). *)
let render (s : sheet) catalog =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (name, unit) :: rest -> (
      match Hashtbl.find_opt s name with
      | Some v when Float.is_finite v -> go ((name, v, unit) :: acc) rest
      | Some v -> Error (Printf.sprintf "metric %s is not finite (%g)" name v)
      | None -> Error (Printf.sprintf "metric %s was not measured" name))
  in
  go [] catalog
