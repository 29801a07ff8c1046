(* Readings taken from outside the layers under test: clocks, CPU time,
   allocation and heap size, and the order statistics every report uses. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let wall () = Unix.gettimeofday ()

(* User and system CPU seconds of this process. *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

let cpu_total () =
  let u, s = cpu () in
  u +. s

(* Peak heap of this process in MiB: the major heap's high-water mark plus
   the minor heap, so a process that never grew its major heap still reads
   its real footprint. *)
let peak_heap_mb () =
  let words =
    (Gc.quick_stat ()).Gc.top_heap_words + (Gc.get ()).Gc.minor_heap_size
  in
  float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks over sorted samples. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* Python's [statistics.quantiles xs ~n:4] (method "exclusive"): the
   quartiles a metric's spread is measured by. Needs two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Meter.quartiles: need two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

(* A growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
