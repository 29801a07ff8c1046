(* Process runtime: the process shell over the simulated engine and
   network.

   Each node is a {!Gmp_platform.Shell} whose world is the engine (virtual
   time, timers tagged with the node's network slot) and the network
   (one stamped envelope per destination). The runtime's only own state
   is the pid -> shell table the network's deliveries dispatch through. *)

open Gmp_base
open Gmp_causality
module Shell = Gmp_platform.Shell

type 'm wrapped = { payload : 'm; sender_vc : Vector_clock.t }
type 'm node = 'm Gmp_platform.Platform.node

type 'm t = {
  engine : Gmp_sim.Engine.t;
  net : 'm wrapped Gmp_net.Network.t;
  shells : 'm Shell.t Pid.Tbl.t;
}

let create ?(delay = Gmp_net.Delay.uniform ~lo:0.5 ~hi:1.5) ~seed () =
  let engine = Gmp_sim.Engine.create () in
  let rng = Gmp_sim.Rng.split (Gmp_sim.Rng.create seed) in
  let net = Gmp_net.Network.create ~engine ~rng ~delay () in
  let t = { engine; net; shells = Pid.Tbl.create 32 } in
  Gmp_net.Network.set_handler net (fun ~dst ~src w ->
      match Pid.Tbl.find_opt t.shells dst with
      | None -> ()
      | Some shell -> Shell.deliver shell ~src w.sender_vc w.payload);
  t

let engine t = t.engine
let network t = t.net
let stats t = Gmp_net.Network.stats t.net

let spawn t pid =
  if Pid.Tbl.mem t.shells pid then
    invalid_arg (Printf.sprintf "Runtime.spawn: %s exists" (Pid.to_string pid));
  (* The network's dense slot for [pid] tags this node's timers. *)
  let slot = Gmp_net.Network.slot_for t.net pid in
  let shell = Shell.create pid in
  Pid.Tbl.replace t.shells pid shell;
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

(* One shell capture per node. The engine and network are checkpointed
   separately by the caller (Group). *)
type 'm checkpoint = 'm Shell.checkpoint list

let checkpoint t =
  Pid.Tbl.fold (fun _ shell acc -> Shell.checkpoint shell :: acc) t.shells []

let restore t cp =
  (* Drop nodes spawned after the capture, so a restored run re-spawns them
     identically (their network-side state is undone by Network.restore). *)
  if Pid.Tbl.length t.shells > List.length cp then begin
    let stale =
      Pid.Tbl.fold
        (fun pid _ acc ->
          if
            List.exists
              (fun c -> Pid.equal (Shell.pid (Shell.captured c)) pid)
              cp
          then acc
          else pid :: acc)
        t.shells []
    in
    List.iter (Pid.Tbl.remove t.shells) stale
  end;
  List.iter Shell.restore cp
