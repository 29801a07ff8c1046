(* A raw datagram layer: unreliable, duplicating and (optionally, via the
   netem model) reordering; FIFO per channel by default (like a physical
   link), optionally fully reordering.

   The paper's model assumes reliable FIFO channels and notes they are
   "easily implemented: a (1-bit) sequence number on each message and an
   acknowledgement protocol". This module is the hostile medium underneath
   that footnote; Arq builds the assumed channel on top of it. The 1-bit
   protocol is sound over lossy-duplicating FIFO links; over arbitrarily
   reordering links it provably is not (stale frames can cross two bit
   flips) - the test suite demonstrates both.

   Every per-datagram fate (drop / delay / duplicate / hold-for-reorder)
   comes from one [Netem.sample] call: the identical decision function the
   live runtime applies at its socket seam, so simulator and live cluster
   share one fault vocabulary. *)

open Gmp_base

type 'm t = {
  engine : Gmp_sim.Engine.t;
  rng : Gmp_sim.Rng.t;
  model : Netem.t;
  fifo : bool; (* per-channel in-order delivery (physical link) *)
  last_delivery : (Pid.t * Pid.t, float) Hashtbl.t;
  mutable handler : dst:Pid.t -> src:Pid.t -> 'm -> unit;
  mutable sent : int;
  mutable lost : int;
  mutable reordered : int;
}

let of_model ?(fifo = true) ~engine ~rng model =
  { engine;
    rng;
    model;
    fifo;
    last_delivery = Hashtbl.create 32;
    handler = (fun ~dst:_ ~src:_ _ -> failwith "Lossy: no handler");
    sent = 0;
    lost = 0;
    reordered = 0 }

let create ?(loss = 0.0) ?(duplicate = 0.0) ?(reorder = 0.0) ?(fifo = true)
    ~engine ~rng ~delay () =
  of_model ~fifo ~engine ~rng (Netem.make ~loss ~duplicate ~reorder ~delay ())

let set_handler t handler = t.handler <- handler

let model t = t.model
let datagrams_sent t = t.sent
let datagrams_lost t = t.lost
let datagrams_reordered t = t.reordered

let deliver_copy t ~src ~dst ~delay ~held payload =
  let now = Gmp_sim.Engine.now t.engine in
  let at =
    if t.fifo && not held then begin
      (* A physical link: later sends on the same channel never overtake.
         Held copies deliberately skip the floor (and do not raise it) -
         that is what reordering means. *)
      let earliest =
        match Hashtbl.find_opt t.last_delivery (src, dst) with
        | None -> 0.0
        | Some last -> last +. 1e-6
      in
      let at = Float.max (now +. delay) earliest in
      Hashtbl.replace t.last_delivery (src, dst) at;
      at
    end
    else now +. delay
  in
  ignore
    (Gmp_sim.Engine.schedule_at t.engine ~time:at (fun () ->
         t.handler ~dst ~src payload)
      : Gmp_sim.Engine.handle)

let send t ~src ~dst payload =
  if Pid.equal src dst then invalid_arg "Lossy.send: src = dst";
  t.sent <- t.sent + 1;
  match Netem.sample t.model t.rng with
  | Netem.Drop -> t.lost <- t.lost + 1
  | Netem.Deliver { delay; dup_delay; held } ->
    if held then t.reordered <- t.reordered + 1;
    deliver_copy t ~src ~dst ~delay ~held payload;
    (match dup_delay with
    | None -> ()
    | Some d -> deliver_copy t ~src ~dst ~delay:d ~held:false payload)
