(* Process runtime: wires nodes onto the simulated network and engine.

   Every message carries the sender's vector clock; the runtime maintains
   each node's clock (tick on send, merge+tick on receive, tick on explicit
   local events) so that protocol layers can stamp trace events with causal
   timestamps and the analysis layer can reason about consistent cuts. *)

open Gmp_base
open Gmp_causality

type 'm wrapped = { payload : 'm; sender_vc : Vector_clock.t }

type 'm node = {
  pid : Pid.t;
  slot : int; (* the network's dense slot for [pid]; tags this node's timers *)
  runtime : 'm t;
  mutable alive : bool;
  vc : Vector_clock.Mutable.clock; (* copy-on-write: snapshot to publish *)
  mutable events : int; (* length of this process's history *)
  mutable on_recv : src:Pid.t -> 'm -> unit;
}

and 'm t = {
  engine : Gmp_sim.Engine.t;
  net : 'm wrapped Gmp_net.Network.t;
  nodes : 'm node Pid.Tbl.t;
  rng : Gmp_sim.Rng.t;
}

let ignore_recv ~src:_ _ = ()

let dispatch t ~dst ~src wrapped =
  match Pid.Tbl.find_opt t.nodes dst with
  | None -> ()
  | Some node ->
    if node.alive then begin
      Vector_clock.Mutable.merge_tick node.vc wrapped.sender_vc dst;
      node.events <- node.events + 1;
      node.on_recv ~src wrapped.payload
    end

let create ?(delay = Gmp_net.Delay.uniform ~lo:0.5 ~hi:1.5) ~seed () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.create seed in
  let net_rng = Gmp_sim.Rng.split rng in
  let net = Gmp_net.Network.create ~engine ~rng:net_rng ~delay () in
  let t = { engine; net; nodes = Pid.Tbl.create 32; rng } in
  Gmp_net.Network.set_handler net (fun ~dst ~src wrapped ->
      dispatch t ~dst ~src wrapped);
  t

let engine t = t.engine
let network t = t.net
let stats t = Gmp_net.Network.stats t.net
let rng t = t.rng
let now t = Gmp_sim.Engine.now t.engine

let spawn t pid =
  if Pid.Tbl.mem t.nodes pid then
    invalid_arg (Printf.sprintf "Runtime.spawn: %s exists" (Pid.to_string pid));
  let node =
    { pid;
      slot = Gmp_net.Network.slot_for t.net pid;
      runtime = t;
      alive = true;
      vc = Vector_clock.Mutable.create ();
      events = 0;
      on_recv = ignore_recv }
  in
  Pid.Tbl.replace t.nodes pid node;
  node

let find t pid = Pid.Tbl.find_opt t.nodes pid

let nodes t = Pid.Tbl.fold (fun _ node acc -> node :: acc) t.nodes []

let set_receiver node on_recv = node.on_recv <- on_recv

let pid node = node.pid
let alive node = node.alive
let clock node = Vector_clock.Mutable.snapshot node.vc
let node_now node = Gmp_sim.Engine.now node.runtime.engine

let local_event node =
  (* Record a local step in the node's history; returns (index, vc) for
     trace stamping. *)
  Vector_clock.Mutable.tick node.vc node.pid;
  node.events <- node.events + 1;
  (node.events, Vector_clock.Mutable.snapshot node.vc)

let send ?extra_delay node ~dst ~category payload =
  if node.alive then begin
    Vector_clock.Mutable.tick node.vc node.pid;
    node.events <- node.events + 1;
    Gmp_net.Network.send ?extra_delay node.runtime.net ~src:node.pid ~dst
      ~category
      { payload; sender_vc = Vector_clock.Mutable.snapshot node.vc }
  end

let broadcast ?extra_delay node ~dsts ~category payload =
  (* Indivisible in the paper's sense: all sends share the engine instant;
     not failure-atomic (a concurrent crash event can sit between
     deliveries). One vc tick — and one published snapshot — for the whole
     broadcast. *)
  if node.alive then begin
    Vector_clock.Mutable.tick node.vc node.pid;
    node.events <- node.events + 1;
    let vc = Vector_clock.Mutable.snapshot node.vc in
    List.iter
      (fun dst ->
        if not (Pid.equal dst node.pid) then
          Gmp_net.Network.send ?extra_delay node.runtime.net ~src:node.pid
            ~dst ~category
            { payload; sender_vc = vc })
      dsts
  end

let crash node =
  if node.alive then begin
    node.alive <- false;
    Gmp_net.Network.crash node.runtime.net node.pid
  end

let disconnect_from node ~from =
  Gmp_net.Network.disconnect node.runtime.net ~at:node.pid ~from

type timer = Gmp_sim.Engine.handle

let set_timer node ~delay f =
  Gmp_sim.Engine.schedule ~proc:node.slot node.runtime.engine ~delay (fun () ->
      if node.alive then f ())

let cancel_timer node timer = Gmp_sim.Engine.cancel node.runtime.engine timer

let every node ~interval f =
  if interval <= 0.0 then invalid_arg "Runtime.every: non-positive interval";
  let rec loop () =
    if node.alive then begin
      f ();
      if node.alive then
        ignore
          (Gmp_sim.Engine.schedule ~proc:node.slot node.runtime.engine
             ~delay:interval loop
            : Gmp_sim.Engine.handle)
    end
  in
  ignore
    (Gmp_sim.Engine.schedule ~proc:node.slot node.runtime.engine
       ~delay:interval loop
      : Gmp_sim.Engine.handle)

let run ?max_steps ?until t = Gmp_sim.Engine.run ?max_steps ?until t.engine

(* Checkpoint of the runtime-owned state: the harness RNG stream and every
   node's liveness, event counter and vector clock (an O(1) copy-on-write
   publish). Nodes are captured by reference — restore mutates the same
   records, which the in-flight closures (timers, dispatch) hold. The engine
   and network are checkpointed separately by the caller (Group). *)
type 'm checkpoint = {
  cp_rng : Gmp_sim.Rng.checkpoint;
  cp_nodes : ('m node * bool * Vector_clock.Mutable.checkpoint * int) list;
}

let checkpoint t =
  { cp_rng = Gmp_sim.Rng.checkpoint t.rng;
    cp_nodes =
      Pid.Tbl.fold
        (fun _ node acc ->
          (node, node.alive, Vector_clock.Mutable.checkpoint node.vc,
           node.events)
          :: acc)
        t.nodes [] }

let restore t cp =
  Gmp_sim.Rng.restore t.rng cp.cp_rng;
  (* Drop nodes spawned after the capture, so a restored run re-spawns them
     identically (their network-side state is undone by Network.restore). *)
  if Pid.Tbl.length t.nodes > List.length cp.cp_nodes then begin
    let stale =
      Pid.Tbl.fold
        (fun pid _ acc ->
          if List.exists (fun (n, _, _, _) -> Pid.equal n.pid pid) cp.cp_nodes
          then acc
          else pid :: acc)
        t.nodes []
    in
    List.iter (Pid.Tbl.remove t.nodes) stale
  end;
  List.iter
    (fun (node, alive, vc, events) ->
      node.alive <- alive;
      Vector_clock.Mutable.restore node.vc vc;
      node.events <- events)
    cp.cp_nodes

(* The node's view of itself through the world-agnostic platform seam.
   Protocol layers built against {!Gmp_platform.Platform.node} (Member, the
   detectors) run on these closures in the sim and on lib/live's sockets in
   the real world, byte-identically. *)
let platform node =
  let module P = Gmp_platform.Platform in
  { P.pid = node.pid;
    alive = (fun () -> node.alive);
    now = (fun () -> node_now node);
    clock = (fun () -> clock node);
    local_event = (fun () -> local_event node);
    send = (fun ~dst ~category payload -> send node ~dst ~category payload);
    broadcast =
      (fun ~dsts ~category payload -> broadcast node ~dsts ~category payload);
    disconnect_from = (fun ~from -> disconnect_from node ~from);
    halt = (fun () -> crash node);
    set_receiver = (fun f -> set_receiver node f);
    set_timer =
      (fun ~delay f ->
        let h = set_timer node ~delay f in
        { P.cancel = (fun () -> cancel_timer node h) });
    every = (fun ~interval f -> every node ~interval f);
    log = (fun _ -> ()) }
