(* Unit tests for the heartbeat failure detector (F1) and the scripted
   oracle. *)

open Gmp_base
open Gmp_detector

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let p i = Pid.make i

(* A self-contained two-party setup: the engine carries beats by scheduling
   calls directly (no network needed for unit-testing the detector). *)
let make ~interval ~timeout ~peers =
  let engine = Gmp_sim.Engine.create () in
  let beats = ref [] in
  let suspects = ref [] in
  let now () = Gmp_sim.Engine.now engine in
  let set_timer ~delay f =
    let h = Gmp_sim.Engine.schedule engine ~delay f in
    { Gmp_platform.Platform.cancel =
        (fun () -> Gmp_sim.Engine.cancel engine h) }
  in
  let d =
    Heartbeat.create ~now ~set_timer ~interval ~timeout
      ~send_beats:(fun qs -> beats := List.rev_append qs !beats)
      ~peers:(fun () -> peers ())
      ~suspect:(fun q -> suspects := q :: !suspects)
      ()
  in
  (engine, d, beats, suspects)

let test_beats_sent () =
  let engine, d, beats, _ =
    make ~interval:1.0 ~timeout:5.0 ~peers:(fun () -> [ p 1; p 2 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:3.5 engine;
  (* Ticks at 1, 2, 3: two peers each. *)
  check int "beats" 6 (List.length !beats)

let test_silent_peer_suspected_once () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:20.0 engine;
  check (Alcotest.list int) "suspected exactly once" [ 1 ]
    (List.map Pid.id !suspects)

let test_live_peer_not_suspected () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  (* Feed beats every 2 time units, well within the timeout. *)
  let rec feed t =
    if t < 20.0 then
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 1);
             feed (t +. 2.0))
          : Gmp_sim.Engine.handle)
  in
  feed 0.5;
  Gmp_sim.Engine.run ~until:20.0 engine;
  check int "never suspected" 0 (List.length !suspects)

let test_suspicion_after_silence () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  (* Beats until t = 5, then silence: suspicion must land after ~8. *)
  List.iter
    (fun t ->
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 1))
          : Gmp_sim.Engine.handle))
    [ 1.0; 3.0; 5.0 ];
  Gmp_sim.Engine.run ~until:7.9 engine;
  check int "not yet" 0 (List.length !suspects);
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "suspected after timeout" 1 (List.length !suspects)

let test_grace_period_for_new_peer () =
  let current = ref [ p 1 ] in
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> !current)
  in
  Heartbeat.start d;
  (* p1 beats fine; p2 appears at t = 10 and beats from 11. It must get a
     full timeout of grace, not an instant suspicion. *)
  let rec feed_p1 t =
    if t < 20.0 then
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 1);
             feed_p1 (t +. 1.5))
          : Gmp_sim.Engine.handle)
  in
  feed_p1 0.5;
  ignore
    (Gmp_sim.Engine.schedule_at engine ~time:10.0 (fun () ->
         current := [ p 1; p 2 ];
         Heartbeat.peers_changed d)
      : Gmp_sim.Engine.handle);
  let rec feed_p2 t =
    if t < 20.0 then
      ignore
        (Gmp_sim.Engine.schedule_at engine ~time:t (fun () ->
             Heartbeat.beat_received d ~from:(p 2);
             feed_p2 (t +. 1.5))
          : Gmp_sim.Engine.handle)
  in
  feed_p2 11.0;
  Gmp_sim.Engine.run ~until:20.0 engine;
  check int "nobody suspected" 0 (List.length !suspects)

let test_forget_allows_fresh_monitoring () =
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "suspected" 1 (List.length !suspects);
  Heartbeat.forget d (p 1);
  (* After forgetting, the peer gets grace again and can be re-suspected
     (used for reincarnations). *)
  Gmp_sim.Engine.run ~until:20.0 engine;
  check int "suspected again after forget" 2 (List.length !suspects)

let test_beat_from_non_peer_ignored () =
  (* A beat from a process outside the peer set (departed, or never a
     member) must not create tracking state: otherwise a dead peer's
     last in-flight beat resurrects its entry after [forget]. *)
  let engine, d, _, suspects =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Heartbeat.beat_received d ~from:(p 5);
  check int "stranger not tracked" 0 (Heartbeat.tracked d);
  (* A late beat from a forgotten (departed) peer is equally ignored. *)
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "p1 suspected" 1 (List.length !suspects);
  Heartbeat.forget d (p 1);
  let tracked_before = Heartbeat.tracked d in
  Heartbeat.beat_received d ~from:(p 5);
  check int "late stranger beat still ignored" tracked_before
    (Heartbeat.tracked d)

let test_departed_peer_pruned () =
  (* Peers that leave the view must drop out of [last_heard] at the next
     tick, not linger forever. *)
  let current = ref [ p 1; p 2 ] in
  let engine, d, _, _ =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> !current)
  in
  Heartbeat.start d;
  Heartbeat.beat_received d ~from:(p 1);
  Heartbeat.beat_received d ~from:(p 2);
  check int "both tracked" 2 (Heartbeat.tracked d);
  current := [ p 1 ];
  Heartbeat.peers_changed d;
  Gmp_sim.Engine.run ~until:2.5 engine;
  check int "departed peer pruned at tick" 1 (Heartbeat.tracked d)

let test_stop () =
  let engine, d, beats, _ =
    make ~interval:1.0 ~timeout:3.0 ~peers:(fun () -> [ p 1 ])
  in
  Heartbeat.start d;
  Gmp_sim.Engine.run ~until:2.5 engine;
  let sent = List.length !beats in
  Heartbeat.stop d;
  Gmp_sim.Engine.run ~until:10.0 engine;
  check int "no beats after stop" sent (List.length !beats);
  check bool "not running" false (Heartbeat.is_running d)

let test_invalid_config () =
  let engine = Gmp_sim.Engine.create () in
  check bool "timeout <= interval rejected" true
    (try
       ignore
         (Heartbeat.create ~now:(fun () -> Gmp_sim.Engine.now engine)
            ~set_timer:(fun ~delay f ->
              let h = Gmp_sim.Engine.schedule engine ~delay f in
              { Gmp_platform.Platform.cancel =
                  (fun () -> Gmp_sim.Engine.cancel engine h) })
            ~interval:2.0 ~timeout:1.0
            ~send_beats:(fun _ -> ())
            ~peers:(fun () -> [])
            ~suspect:(fun _ -> ())
            ());
       false
     with Invalid_argument _ -> true)

let test_scripted () =
  let engine = Gmp_sim.Engine.create () in
  let fired = ref [] in
  let schedule_at ~time f =
    ignore
      (Gmp_sim.Engine.schedule_at engine ~time f : Gmp_sim.Engine.handle)
  in
  Scripted.install ~schedule_at
    [ Scripted.entry ~at:5.0 ~observer:(p 1) ~suspect:(p 2);
      Scripted.entry ~at:3.0 ~observer:(p 0) ~suspect:(p 1) ]
    ~fire:(fun ~observer ~suspect ->
      fired := (Pid.id observer, Pid.id suspect, Gmp_sim.Engine.now engine) :: !fired);
  Gmp_sim.Engine.run engine;
  check int "both fired" 2 (List.length !fired);
  check bool "in time order" true
    (match List.rev !fired with
     | [ (0, 1, t1); (1, 2, t2) ] -> t1 = 3.0 && t2 = 5.0
     | _ -> false)

let test_crash_script () =
  let engine = Gmp_sim.Engine.create () in
  let crashed = ref [] in
  let schedule_at ~time f =
    ignore
      (Gmp_sim.Engine.schedule_at engine ~time f : Gmp_sim.Engine.handle)
  in
  Scripted.crash_script ~schedule_at
    [ (2.0, p 3); (1.0, p 1) ]
    ~crash:(fun pid -> crashed := Pid.id pid :: !crashed);
  Gmp_sim.Engine.run engine;
  check (Alcotest.list int) "crash order" [ 1; 3 ] (List.rev !crashed)

(* ---- oracle: the shipped detector against the list-based reference ----

   Both detectors run in identical scripted worlds (a manual clock, one
   timer slot, a mutable peer list) under the same random operation
   sequence. They must send the same beat rounds and fire the same
   suspicions in the same order, and agree on [tracked] and the last-heard
   table after every operation, across checkpoint/restore too. With
   [member_like], a suspicion does what [Member] does: forget the suspect
   and drop it from the peer set mid-tick. *)

module type DETECTOR = sig
  type t
  type checkpoint

  val create :
    now:(unit -> float) ->
    set_timer:(delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer) ->
    interval:float ->
    timeout:float ->
    send_beats:(Pid.t list -> unit) ->
    peers:(unit -> Pid.t list) ->
    suspect:(Pid.t -> unit) ->
    unit ->
    t

  val peers_changed : t -> unit
  val start : t -> unit
  val stop : t -> unit
  val beat_received : t -> from:Pid.t -> unit
  val forget : t -> Pid.t -> unit
  val tracked : t -> int
  val last_heard : t -> (Pid.t * float) list
  val checkpoint : t -> checkpoint
  val restore : t -> checkpoint -> unit
end

type oracle_op =
  | Set_peers of int list
  | Rememo (* an equal list, freshly allocated, as a re-memoized cache *)
  | Beat of int
  | Advance of float
  | Tick
  | Forget of int
  | Stop
  | Start
  | Checkpoint
  | Restore

let pp_oracle_op ppf = function
  | Set_peers ids -> Fmt.pf ppf "peers %a" Fmt.(Dump.list int) ids
  | Rememo -> Fmt.string ppf "rememo"
  | Beat i -> Fmt.pf ppf "beat p%d" i
  | Advance dt -> Fmt.pf ppf "advance %g" dt
  | Tick -> Fmt.string ppf "tick"
  | Forget i -> Fmt.pf ppf "forget p%d" i
  | Stop -> Fmt.string ppf "stop"
  | Start -> Fmt.string ppf "start"
  | Checkpoint -> Fmt.string ppf "checkpoint"
  | Restore -> Fmt.string ppf "restore"

(* One run's observable history: beat rounds, suspicions, and after every
   op the tracked count and last-heard table. *)
type observation =
  | Beats of float * Pid.t list
  | Suspected of float * Pid.t
  | State of int * (Pid.t * float) list

module Oracle_world (D : DETECTOR) = struct
  let run ~member_like ops =
    let now = ref 0.0 in
    let timer = ref None and next_timer = ref 0 in
    let current = ref [] in
    let obs = ref [] in
    let set_timer ~delay:_ f =
      let id = !next_timer in
      incr next_timer;
      timer := Some (id, f);
      { Gmp_platform.Platform.cancel =
          (fun () ->
            match !timer with
            | Some (i, _) when i = id -> timer := None
            | _ -> ()) }
    in
    let dref = ref None in
    let d () = Option.get !dref in
    let suspect q =
      obs := Suspected (!now, q) :: !obs;
      if member_like then begin
        D.forget (d ()) q;
        current := List.filter (fun r -> not (Pid.equal r q)) !current;
        D.peers_changed (d ())
      end
    in
    dref :=
      Some
        (D.create ~now:(fun () -> !now) ~set_timer ~interval:1.0 ~timeout:3.0
           ~send_beats:(fun qs -> obs := Beats (!now, qs) :: !obs)
           ~peers:(fun () -> !current)
           ~suspect ());
    let d = d () in
    let saved = ref None in
    List.iter
      (fun op ->
        (match op with
         | Set_peers ids ->
           current := List.map p ids;
           D.peers_changed d
         | Rememo ->
           current := List.map Fun.id !current;
           D.peers_changed d
         | Beat i -> D.beat_received d ~from:(p i)
         | Advance dt -> now := !now +. dt
         | Tick -> (
           now := !now +. 1.0;
           match !timer with
           | None -> ()
           | Some (_, f) ->
             timer := None;
             f ())
         | Forget i -> D.forget d (p i)
         | Stop -> D.stop d
         | Start -> D.start d
         | Checkpoint ->
           saved := Some (D.checkpoint d, !now, !timer, !current)
         | Restore -> (
           match !saved with
           | None -> ()
           | Some (cp, at, tm, cur) ->
             now := at;
             timer := tm;
             current := cur;
             D.restore d cp));
        obs := State (D.tracked d, D.last_heard d) :: !obs)
      ops;
    List.rev !obs
end

module Shipped = Oracle_world (Heartbeat)
module Reference = Oracle_world (Heartbeat_ref)

let oracle_op_gen =
  let open QCheck.Gen in
  (* Peers come from p0..p5; p6 and p7 are never peers (strangers). *)
  let subset =
    map
      (fun mask -> List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3; 4; 5 ])
      (int_bound 63)
  in
  frequency
    [ (3, map (fun ids -> Set_peers ids) subset);
      (1, return (Set_peers []));
      (1, return Rememo);
      (6, map (fun i -> Beat i) (int_bound 7));
      (3, map (fun k -> Advance (0.25 *. float_of_int (k + 1))) (int_bound 7));
      (6, return Tick);
      (1, map (fun i -> Forget i) (int_bound 7));
      (1, return Stop);
      (2, return Start);
      (1, return Checkpoint);
      (1, return Restore) ]

let prop_matches_reference =
  QCheck.Test.make ~name:"heartbeat: matches the list-based reference"
    ~count:500
    (QCheck.make
       ~print:(fun (member_like, ops) ->
         Fmt.str "member_like=%b@ %a" member_like
           Fmt.(list ~sep:semi pp_oracle_op)
           ops)
       QCheck.Gen.(
         pair bool
           (list_size (int_range 1 120) oracle_op_gen
           |> map (fun ops -> Start :: ops))))
    (fun (member_like, ops) ->
      Shipped.run ~member_like ops = Reference.run ~member_like ops)

let suite =
  [ Alcotest.test_case "heartbeat: beats sent per interval" `Quick
      test_beats_sent;
    Alcotest.test_case "heartbeat: silent peer suspected once" `Quick
      test_silent_peer_suspected_once;
    Alcotest.test_case "heartbeat: live peer not suspected" `Quick
      test_live_peer_not_suspected;
    Alcotest.test_case "heartbeat: suspicion after silence" `Quick
      test_suspicion_after_silence;
    Alcotest.test_case "heartbeat: grace for new peers" `Quick
      test_grace_period_for_new_peer;
    Alcotest.test_case "heartbeat: forget re-arms" `Quick
      test_forget_allows_fresh_monitoring;
    Alcotest.test_case "heartbeat: non-peer beats ignored" `Quick
      test_beat_from_non_peer_ignored;
    Alcotest.test_case "heartbeat: departed peers pruned" `Quick
      test_departed_peer_pruned;
    Alcotest.test_case "heartbeat: stop" `Quick test_stop;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "heartbeat: invalid config" `Quick test_invalid_config;
    Alcotest.test_case "scripted: suspicion entries" `Quick test_scripted;
    Alcotest.test_case "scripted: crash script" `Quick test_crash_script ]
