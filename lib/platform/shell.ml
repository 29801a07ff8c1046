(* The process shell: the Platform node's bookkeeping, written once for
   both worlds.

   A world supplies time, one-shot timers, a stamped per-destination
   channel and its halves of halt and S1; the shell supplies the rest.
   Nothing on the send, delivery or timer path allocates beyond what the
   world itself does: one snapshot per send or broadcast (the clock is
   copy-on-write, so publishing is O(1)), the guard closure and cancel
   record per one-shot timer, and a single loop closure per periodic
   timer, which reschedules itself straight through the world rather
   than through [set_timer]. *)

open Gmp_base
open Gmp_causality

type ('m, 'h) world = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  transmit :
    dst:Pid.t -> category:Stats.category -> Vector_clock.t -> 'm -> unit;
  halt : unit -> unit;
  disconnect_from : from:Pid.t -> unit;
  log : string -> unit;
}

type 'm t = {
  pid : Pid.t;
  mutable alive : bool;
  vc : Vector_clock.Mutable.clock; (* copy-on-write: snapshot to publish *)
  mutable events : int; (* length of this process's history *)
  mutable receiver : src:Pid.t -> 'm -> unit;
}

let create pid =
  { pid;
    alive = true;
    vc = Vector_clock.Mutable.create ();
    events = 0;
    receiver = (fun ~src:_ _ -> ()) }

let pid t = t.pid
let alive t = t.alive
let clock t = Vector_clock.Mutable.snapshot t.vc

(* Every event of the process's history: tick its own component, count. *)
let step t =
  Vector_clock.Mutable.tick t.vc t.pid;
  t.events <- t.events + 1

let deliver t ~src vc msg =
  if t.alive then begin
    Vector_clock.Mutable.merge_tick t.vc vc t.pid;
    t.events <- t.events + 1;
    t.receiver ~src msg
  end

let local_event t =
  step t;
  (t.events, Vector_clock.Mutable.snapshot t.vc)

let send t w ~dst ~category msg =
  if t.alive then begin
    step t;
    w.transmit ~dst ~category (Vector_clock.Mutable.snapshot t.vc) msg
  end

(* The paper's Bcast: indivisible (one tick and one published snapshot
   for the whole fan-out, self excluded) but not failure-atomic. *)
let broadcast t w ~dsts ~category msg =
  if t.alive then begin
    step t;
    let vc = Vector_clock.Mutable.snapshot t.vc in
    List.iter
      (fun dst ->
        if not (Pid.equal dst t.pid) then w.transmit ~dst ~category vc msg)
      dsts
  end

let halt t w =
  if t.alive then begin
    t.alive <- false;
    w.halt ()
  end

let set_timer t w ~delay f =
  let h = w.schedule ~delay (fun () -> if t.alive then f ()) in
  { Platform.cancel = (fun () -> w.cancel h) }

let every t w ~interval f =
  if interval <= 0.0 then invalid_arg "Shell.every: non-positive interval";
  let rec loop () =
    if t.alive then begin
      f ();
      if t.alive then ignore (w.schedule ~delay:interval loop)
    end
  in
  ignore (w.schedule ~delay:interval loop)

let node t w =
  { Platform.pid = t.pid;
    alive = (fun () -> t.alive);
    now = w.now;
    clock = (fun () -> clock t);
    local_event = (fun () -> local_event t);
    send = (fun ~dst ~category msg -> send t w ~dst ~category msg);
    broadcast = (fun ~dsts ~category msg -> broadcast t w ~dsts ~category msg);
    disconnect_from = w.disconnect_from;
    halt = (fun () -> halt t w);
    set_receiver = (fun f -> t.receiver <- f);
    set_timer = (fun ~delay f -> set_timer t w ~delay f);
    every = (fun ~interval f -> every t w ~interval f);
    log = w.log }

(* Captured by reference: restore mutates the same record, which the
   world's in-flight closures (timers, deliveries) already hold. *)
type 'm checkpoint = {
  shell : 'm t;
  cp_alive : bool;
  cp_vc : Vector_clock.Mutable.checkpoint;
  cp_events : int;
}

let checkpoint t =
  { shell = t;
    cp_alive = t.alive;
    cp_vc = Vector_clock.Mutable.checkpoint t.vc;
    cp_events = t.events }

let restore cp =
  let t = cp.shell in
  t.alive <- cp.cp_alive;
  Vector_clock.Mutable.restore t.vc cp.cp_vc;
  t.events <- cp.cp_events

let captured cp = cp.shell
