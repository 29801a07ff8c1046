(* Span accounting at the Platform boundary.

   A traced run wraps a node's platform record ([Runtime.platform] in the
   simulator, [Node.platform] live) before [Member.create] sees it, so the
   member's sends and broadcasts, its receiver and its timer callbacks are
   timed from outside the layers. Per boundary the tracer keeps a call
   count, total and self nanoseconds (self = total minus the spans nested
   inside, e.g. the broadcast a heartbeat tick makes), all in memory; the
   harness reads them when the run ends. Nothing here allocates per call,
   so a traced run allocates what an untraced one does. *)

module Platform = Gmp_platform.Platform
open Gmp_base

type acc = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

type t = {
  send : acc;  (** send and broadcast calls *)
  timer : acc;  (** timer and periodic callbacks *)
  handler : acc;  (** the member's receiver: one call per delivery *)
  mutable msgs : int;  (** messages put on the wire by [send] spans *)
  mutable broadcasts : int;
  mutable top_ns : int;  (** time inside outermost spans *)
  mutable depth : int;
  mutable child_ns : int;
  starts : int array;
  saved : int array;
}

let acc () = { calls = 0; total_ns = 0; self_ns = 0 }
let max_depth = 16

let create () =
  { send = acc ();
    timer = acc ();
    handler = acc ();
    msgs = 0;
    broadcasts = 0;
    top_ns = 0;
    depth = 0;
    child_ns = 0;
    starts = Array.make max_depth 0;
    saved = Array.make max_depth 0 }

let clear a =
  a.calls <- 0;
  a.total_ns <- 0;
  a.self_ns <- 0

(* Zero the counters (a live run does this when its measured window
   opens); spans already open keep their start times. *)
let reset t =
  clear t.send;
  clear t.timer;
  clear t.handler;
  t.msgs <- 0;
  t.broadcasts <- 0;
  t.top_ns <- 0

let enter t =
  let d = t.depth in
  if d >= max_depth then failwith "Tracer: spans nested too deep";
  t.saved.(d) <- t.child_ns;
  t.child_ns <- 0;
  t.depth <- d + 1;
  t.starts.(d) <- Meter.now_ns ()

let leave t a =
  let stop = Meter.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dt = stop - t.starts.(d) in
  a.calls <- a.calls + 1;
  a.total_ns <- a.total_ns + dt;
  a.self_ns <- a.self_ns + dt - t.child_ns;
  t.child_ns <- t.saved.(d) + dt;
  if d = 0 then t.top_ns <- t.top_ns + dt

let wrap t (p : 'm Platform.node) : 'm Platform.node =
  let timed_callback f () =
    enter t;
    match f () with
    | () -> leave t t.timer
    | exception e ->
      leave t t.timer;
      raise e
  in
  { p with
    send =
      (fun ~dst ~category m ->
        t.msgs <- t.msgs + 1;
        enter t;
        match p.send ~dst ~category m with
        | () -> leave t t.send
        | exception e ->
          leave t t.send;
          raise e);
    broadcast =
      (fun ~dsts ~category m ->
        t.broadcasts <- t.broadcasts + 1;
        List.iter
          (fun d -> if not (Pid.equal d p.pid) then t.msgs <- t.msgs + 1)
          dsts;
        enter t;
        match p.broadcast ~dsts ~category m with
        | () -> leave t t.send
        | exception e ->
          leave t t.send;
          raise e);
    set_receiver =
      (fun f ->
        p.set_receiver (fun ~src m ->
            enter t;
            match f ~src m with
            | () -> leave t t.handler
            | exception e ->
              leave t t.handler;
              raise e));
    set_timer = (fun ~delay f -> p.set_timer ~delay (timed_callback f));
    every = (fun ~interval f -> p.every ~interval (timed_callback f)) }

(* Plain-data copy of the counters (safe to marshal across a pipe). *)
type summary = {
  send_calls : int;
  send_ns : int;
  msgs : int;
  broadcasts : int;
  timer_calls : int;
  timer_self_ns : int;
  handler_calls : int;
  handler_self_ns : int;
  top_ns : int;
}

let empty_summary =
  { send_calls = 0;
    send_ns = 0;
    msgs = 0;
    broadcasts = 0;
    timer_calls = 0;
    timer_self_ns = 0;
    handler_calls = 0;
    handler_self_ns = 0;
    top_ns = 0 }

let summary (t : t) =
  { send_calls = t.send.calls;
    send_ns = t.send.total_ns;
    msgs = t.msgs;
    broadcasts = t.broadcasts;
    timer_calls = t.timer.calls;
    timer_self_ns = t.timer.self_ns;
    handler_calls = t.handler.calls;
    handler_self_ns = t.handler.self_ns;
    top_ns = t.top_ns }

let add a b =
  { send_calls = a.send_calls + b.send_calls;
    send_ns = a.send_ns + b.send_ns;
    msgs = a.msgs + b.msgs;
    broadcasts = a.broadcasts + b.broadcasts;
    timer_calls = a.timer_calls + b.timer_calls;
    timer_self_ns = a.timer_self_ns + b.timer_self_ns;
    handler_calls = a.handler_calls + b.handler_calls;
    handler_self_ns = a.handler_self_ns + b.handler_self_ns;
    top_ns = a.top_ns + b.top_ns }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* The platform and member rows every traced world reports. Fan-out is
   messages per broadcast; a sends-only run reads 0. *)
let rows s =
  let unicasts = s.send_calls - s.broadcasts in
  [ ("platform.send_ns_per_msg", ratio s.send_ns s.msgs);
    ("platform.broadcast_fanout", ratio (s.msgs - unicasts) s.broadcasts);
    ("platform.timer_callback_ns", ratio s.timer_self_ns s.timer_calls);
    ("member.deliveries", float_of_int s.handler_calls);
    ("member.handler_ns_per_delivery", ratio s.handler_self_ns s.handler_calls)
  ]
