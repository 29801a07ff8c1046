(* The two worlds a process shell runs in, as a test input: the simulator
   (Runtime over the engine and network, virtual time) and live nodes on
   UDP loopback (Node over real sockets and the wall clock). A case written
   against [t] runs the same assertions in both; it states its times in
   [unit]s, so the live leg stays short. *)

open Gmp_base
open Gmp_core
module Platform = Gmp_platform.Platform

type t = {
  name : string;
  unit : float;  (** seconds of the world's clock per time unit *)
  spawn : Pid.t list -> Wire.t Platform.node list;
  run : float -> unit;  (** advance the world by this many seconds *)
  close : unit -> unit;
}

let sim ~seed =
  let rt = Gmp_runtime.Runtime.create ~seed () in
  { name = "sim";
    unit = 1.0;
    spawn = List.map (Gmp_runtime.Runtime.spawn rt);
    run =
      (fun d ->
        let now = Gmp_sim.Engine.now (Gmp_runtime.Runtime.engine rt) in
        Gmp_runtime.Runtime.run ~until:(now +. d) rt);
    close = ignore }

(* Every node's poll loop gets a short slice in turn until the time is up
   or no node is alive; UDP loopback buffers what a node sends while its
   peer is not the one being polled. *)
let live () =
  let nodes = ref [] in
  let spawn pids =
    let fresh =
      List.map
        (fun pid ->
          Gmp_live.Node.create ~pid
            ~bind:(Gmp_net.Endpoint.loopback ~port:0) ())
        pids
    in
    nodes := !nodes @ fresh;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a != b then
              Gmp_live.Node.add_peer a (Gmp_live.Node.pid b)
                (Gmp_live.Node.endpoint b))
          !nodes)
      !nodes;
    List.map Gmp_live.Node.platform fresh
  in
  let run d =
    let stop = Unix.gettimeofday () +. d in
    while
      Unix.gettimeofday () < stop && List.exists Gmp_live.Node.alive !nodes
    do
      List.iter (Gmp_live.Node.run ~until:0.001) !nodes
    done
  in
  { name = "live";
    unit = 0.01;
    spawn;
    run;
    close = (fun () -> List.iter Gmp_live.Node.close !nodes) }

(* Run [case] in a fresh simulator world, then in a fresh live world. *)
let both ~seed case =
  List.iter
    (fun make ->
      let w = make () in
      Fun.protect ~finally:w.close (fun () -> case w))
    [ (fun () -> sim ~seed); live ]
