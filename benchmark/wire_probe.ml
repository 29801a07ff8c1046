(* Probes of the live wire layers, timed through their public functions on
   inputs shaped like the workload's: data frames carrying an n-entry
   vector clock and a 64-byte application blob, acks, and trace events
   over an n-member view. Codec and Framing sit inside the node, out of a
   wrapper's reach, so every workload (live ones included) measures them
   here. *)

open Gmp_base
open Gmp_core
module Codec = Gmp_live.Codec
module Vector_clock = Gmp_causality.Vector_clock

let blob = String.make 64 'x'

let data_frame ~n =
  let pids = Pid.group n in
  Codec.Data
    { src = List.hd pids;
      chan_seq = 123_456;
      vc = Vector_clock.of_list (List.mapi (fun i p -> (p, 1000 + i)) pids);
      msg = Wire.App { app_ver = 3; payload = Codec.Blob blob } }

let ack_frame = Codec.Ack { src = Pid.make 1; ack_next = 123_457 }

let per_iter ~iters f =
  let (), ns =
    Meter.time_ns (fun () ->
        for _ = 1 to iters do
          f ()
        done)
  in
  float_of_int ns /. float_of_int iters

let decode_ok s =
  match Codec.decode_frame s with
  | Ok _ -> ()
  | Error e -> failwith (Fmt.str "wire probe: %a" Codec.pp_error e)

let codec_rows ~n ~iters =
  let data = data_frame ~n in
  let data_bytes = Codec.encode_frame data in
  let ack_bytes = Codec.encode_frame ack_frame in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    decode_ok (Codec.encode_frame data)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int iters in
  [ ("codec.encode_data_ns",
     per_iter ~iters (fun () -> ignore (Codec.encode_frame data : string)));
    ("codec.decode_data_ns", per_iter ~iters (fun () -> decode_ok data_bytes));
    ("codec.encode_ack_ns",
     per_iter ~iters (fun () -> ignore (Codec.encode_frame ack_frame : string)));
    ("codec.decode_ack_ns", per_iter ~iters (fun () -> decode_ok ack_bytes));
    ("codec.minor_words_per_frame", words) ]

(* A stream of whole frames cut into 4 KiB reads, as a TCP receiver sees
   it: frames straddle the chunk boundaries. *)
let framing_row ~n ~frames =
  let one = Codec.encode_frame (data_frame ~n) in
  let stream = String.concat "" (List.init frames (fun _ -> one)) in
  let chunk = 4096 in
  let f = Gmp_live.Framing.create () in
  let got = ref 0 in
  let (), ns =
    Meter.time_ns (fun () ->
        let len = String.length stream in
        let off = ref 0 in
        while !off < len do
          let l = min chunk (len - !off) in
          (match Gmp_live.Framing.feed_string f (String.sub stream !off l) with
          | Ok fs -> got := !got + List.length fs
          | Error e -> failwith (Fmt.str "framing probe: %a" Codec.pp_error e));
          off := !off + l
        done)
  in
  if !got <> frames then failwith "framing probe: lost frames";
  ("framing.feed_ns_per_frame", float_of_int ns /. float_of_int frames)

(* Each event is written as one flushed JSON line, as on a live node. *)
let trace_io_row ~n ~events ~dir =
  let path = Filename.concat dir "wire-probe.jsonl" in
  let trace = Trace.create () in
  let writer = Gmp_live.Trace_io.attach trace ~path in
  let pids = Pid.group n in
  let vc = Vector_clock.of_list (List.mapi (fun i p -> (p, i)) pids) in
  let owner = List.hd pids in
  let (), ns =
    Meter.time_ns (fun () ->
        for i = 1 to events do
          Trace.record trace ~owner ~index:i ~time:(float_of_int i) ~vc
            (Trace.Installed { ver = i; view_members = pids })
        done)
  in
  Gmp_live.Trace_io.close writer;
  Sys.remove path;
  ("trace_io.write_us_per_event", float_of_int ns /. 1000.0 /. float_of_int events)

let rows ~n ~dir =
  codec_rows ~n ~iters:20_000
  @ [ framing_row ~n ~frames:20_000; trace_io_row ~n ~events:500 ~dir ]
