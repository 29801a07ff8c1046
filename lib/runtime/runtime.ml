(* Process runtime: the process shell over the simulated engine and
   network.

   Each node is a {!Gmp_platform.Shell} whose world is the engine (virtual
   time, timers tagged with the node's network slot) and the network
   (one stamped envelope per destination). The runtime's only own state
   is the shell array the network's deliveries dispatch through, indexed
   by the destination's network slot, so a delivery finds its shell with
   one array read. *)

open Gmp_base
open Gmp_causality
module Shell = Gmp_platform.Shell

type 'm wrapped = { payload : 'm; sender_vc : Vector_clock.t }
type 'm node = 'm Gmp_platform.Platform.node

type 'm t = {
  engine : Gmp_sim.Engine.t;
  net : 'm wrapped Gmp_net.Network.t;
  mutable shells : 'm Shell.t option array; (* by network slot *)
}

let create ?(delay = Gmp_net.Delay.uniform ~lo:0.5 ~hi:1.5) ~seed () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.split (Gmp_sim.Rng.create seed) in
  let net = Gmp_net.Network.create ~engine ~rng ~delay () in
  let t = { engine; net; shells = Array.make 16 None } in
  Gmp_net.Network.set_handler net (fun ~dst_slot ~src w ->
      if dst_slot < Array.length t.shells then
        match t.shells.(dst_slot) with
        | None -> ()
        | Some shell -> Shell.deliver shell ~src w.sender_vc w.payload);
  t

let engine t = t.engine
let network t = t.net
let stats t = Gmp_net.Network.stats t.net

let spawn t pid =
  (* The network's dense slot for [pid] tags this node's timers and indexes
     its shell. *)
  let slot = Gmp_net.Network.slot_for t.net pid in
  let len = Array.length t.shells in
  if slot < len && Option.is_some t.shells.(slot) then
    invalid_arg (Printf.sprintf "Runtime.spawn: %s exists" (Pid.to_string pid));
  if slot >= len then begin
    let shells = Array.make (max (2 * len) (slot + 1)) None in
    Array.blit t.shells 0 shells 0 len;
    t.shells <- shells
  end;
  let shell = Shell.create pid in
  t.shells.(slot) <- Some shell;
  Shell.node shell
    { Shell.now = (fun () -> Gmp_sim.Engine.now t.engine);
      schedule =
        (fun ~delay f -> Gmp_sim.Engine.schedule ~proc:slot t.engine ~delay f);
      cancel = Gmp_sim.Engine.cancel t.engine;
      transmit =
        (fun ~dst ~category sender_vc payload ->
          Gmp_net.Network.send t.net ~src:pid ~dst ~category
            { payload; sender_vc });
      halt = (fun () -> Gmp_net.Network.crash t.net pid);
      disconnect_from =
        (fun ~from -> Gmp_net.Network.disconnect t.net ~at:pid ~from);
      log = ignore }

let platform node = node

let run ?max_steps ?until t = Gmp_sim.Engine.run ?max_steps ?until t.engine

(* One shell capture per node, with its slot. The engine and network are
   checkpointed separately by the caller (Group). *)
type 'm checkpoint = (int * 'm Shell.checkpoint) list

let checkpoint t =
  let cp = ref [] in
  Array.iteri
    (fun slot -> function
      | None -> ()
      | Some shell -> cp := (slot, Shell.checkpoint shell) :: !cp)
    t.shells;
  !cp

let restore t cp =
  (* Drop nodes spawned after the capture, so a restored run re-spawns them
     identically (their network-side state is undone by Network.restore). *)
  Array.fill t.shells 0 (Array.length t.shells) None;
  List.iter
    (fun (slot, c) ->
      t.shells.(slot) <- Some (Shell.captured c);
      Shell.restore c)
    cp
