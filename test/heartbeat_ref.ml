(* Reference heartbeat detector for the oracle test in [Test_detector]: the
   list-based logic that {!Gmp_detector.Heartbeat} replaced, kept only to
   cross-check it. It re-reads [peers ()] on every beat ([is_peer] is a list
   scan) and prunes on every tick (a list scan per tracked peer), so it
   needs no change signal: [peers_changed] is a no-op. *)

open Gmp_base

type t = {
  now : unit -> float;
  set_timer : delay:float -> (unit -> unit) -> Gmp_platform.Platform.timer;
  interval : float;
  timeout : float;
  send_beats : Pid.t list -> unit;
  peers : unit -> Pid.t list;
  suspect : Pid.t -> unit;
  last_heard : float Pid.Tbl.t;
  mutable running : bool;
  mutable pending : Gmp_platform.Platform.timer option;
  mutable suspects_fired : Pid.Set.t;
}

let create ~now ~set_timer ~interval ~timeout ~send_beats ~peers ~suspect () =
  { now;
    set_timer;
    interval;
    timeout;
    send_beats;
    peers;
    suspect;
    last_heard = Pid.Tbl.create 16;
    running = false;
    pending = None;
    suspects_fired = Pid.Set.empty }

let peers_changed (_ : t) = ()

let is_peer t pid = List.exists (Pid.equal pid) (t.peers ())

let beat_received t ~from =
  if is_peer t from then Pid.Tbl.replace t.last_heard from (t.now ())

let forget t pid =
  Pid.Tbl.remove t.last_heard pid;
  t.suspects_fired <- Pid.Set.remove pid t.suspects_fired

let prune t peers =
  let stale =
    Pid.Tbl.fold
      (fun pid _ acc ->
        if List.exists (Pid.equal pid) peers then acc else pid :: acc)
      t.last_heard []
  in
  List.iter (fun pid -> forget t pid) stale;
  t.suspects_fired <-
    Pid.Set.filter (fun pid -> List.exists (Pid.equal pid) peers)
      t.suspects_fired

let check_peer t now pid =
  let deadline_start =
    match Pid.Tbl.find_opt t.last_heard pid with
    | Some heard -> heard
    | None ->
      Pid.Tbl.replace t.last_heard pid now;
      now
  in
  if now -. deadline_start > t.timeout
     && not (Pid.Set.mem pid t.suspects_fired)
  then begin
    t.suspects_fired <- Pid.Set.add pid t.suspects_fired;
    t.suspect pid
  end

let tick t =
  if t.running then begin
    let now = t.now () in
    let peers = t.peers () in
    prune t peers;
    if peers <> [] then t.send_beats peers;
    List.iter (check_peer t now) peers
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let rec loop () =
      t.pending <- None;
      if t.running then begin
        tick t;
        if t.running then t.pending <- Some (t.set_timer ~delay:t.interval loop)
      end
    in
    t.pending <- Some (t.set_timer ~delay:t.interval loop)
  end

let stop t =
  t.running <- false;
  match t.pending with
  | None -> ()
  | Some timer ->
    t.pending <- None;
    timer.Gmp_platform.Platform.cancel ()

let last_heard t =
  Pid.Tbl.fold (fun pid at acc -> (pid, at) :: acc) t.last_heard []
  |> List.sort (fun (p, _) (q, _) -> Pid.compare p q)

let tracked t = Pid.Tbl.length t.last_heard

type checkpoint = {
  cp_last_heard : (Pid.t * float) list;
  cp_running : bool;
  cp_pending : Gmp_platform.Platform.timer option;
  cp_suspects : Pid.Set.t;
}

let checkpoint t =
  { cp_last_heard = last_heard t;
    cp_running = t.running;
    cp_pending = t.pending;
    cp_suspects = t.suspects_fired }

let restore t cp =
  Pid.Tbl.reset t.last_heard;
  List.iter (fun (pid, at) -> Pid.Tbl.replace t.last_heard pid at)
    cp.cp_last_heard;
  t.running <- cp.cp_running;
  t.pending <- cp.cp_pending;
  t.suspects_fired <- cp.cp_suspects
