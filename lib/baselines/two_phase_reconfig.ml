(* Two-phase reconfiguration baseline (Claim 7.2, Figure 11).

   Same two-phase update algorithm as the real protocol, but reconfiguration
   has only Interrogate and Commit - no Propose round. Without the proposal
   phase an initiator's concrete plan is never registered in the survivors'
   next() lists, so a later reconfigurer that detects two possible in-flight
   changes cannot tell which one may have been committed invisibly; it must
   guess. This module guesses the way a naive implementation would - trust
   the highest-ranked proposer (the old coordinator) - and the Figure 11
   schedule makes that guess wrong, producing a GMP-3 violation that the
   shared Checker flags. The identical schedule run through the real
   three-phase protocol stays consistent (the bench shows both).

   The machinery is deliberately a reduction of Member: enough of the update
   algorithm to put proposals in flight, plus the crippled reconfiguration. *)

open Gmp_base
module Runtime = Gmp_runtime.Runtime
module Platform = Gmp_platform.Platform
module Trace = Gmp_core.Trace
module Types = Gmp_core.Types
module View = Gmp_core.View

type reply = { r_ver : int; r_seq : Types.seq; r_next : Types.expectation list }

(* Interned send categories (the Stats hot path takes dense ids). *)
let cat_invite = Gmp_net.Stats.intern "invite"
let cat_invite_ok = Gmp_net.Stats.intern "invite-ok"
let cat_commit = Gmp_net.Stats.intern "commit"
let cat_interrogate = Gmp_net.Stats.intern "interrogate"
let cat_interrogate_ok = Gmp_net.Stats.intern "interrogate-ok"
let cat_reconf_commit = Gmp_net.Stats.intern "reconf-commit"

type msg =
  | Invite of { op : Types.op; invite_ver : int }
  | Invite_ok of { ok_ver : int }
  | Commit of { op : Types.op; commit_ver : int }
  | Interrogate
  | Interrogate_ok of reply
  | Reconf_commit of { canonical : Types.seq } (* phase 2: commit directly *)

type phase =
  | Idle
  | Mgr_awaiting of { op : Types.op; target_ver : int; mutable oks : Pid.Set.t }
  | Interrogating of { mutable responses : (Pid.t * reply) list }

type node = {
  handle : msg Platform.node;
  trace : Trace.t;
  mutable view : View.t;
  mutable ver : int;
  mutable seq : Types.seq;
  mutable next : Types.expectation list;
  mutable faulty : Pid.Set.t;
  mutable mgr : Pid.t;
  mutable phase : phase;
}

type t = {
  runtime : msg Runtime.t;
  trace : Trace.t;
  initial : Pid.t list;
  mutable nodes : node Pid.Map.t;
}

let me node = node.handle.Platform.pid

let record node kind =
  let index, vc = node.handle.Platform.local_event () in
  Trace.record node.trace ~owner:(me node) ~index
    ~time:(node.handle.Platform.now ())
    ~vc kind

let others node =
  List.filter (fun p -> not (Pid.equal p (me node))) (View.members node.view)

let non_faulty_others node =
  List.filter (fun p -> not (Pid.Set.mem p node.faulty)) (others node)

let apply_op node op =
  (match op with
   | Types.Remove z ->
     node.view <- View.remove node.view z;
     node.faulty <- Pid.Set.remove z node.faulty;
     node.ver <- node.ver + 1;
     node.seq <- node.seq @ [ op ];
     record node (Trace.Removed { target = z; new_ver = node.ver })
   | Types.Add z ->
     node.view <- View.add node.view z;
     node.ver <- node.ver + 1;
     node.seq <- node.seq @ [ op ];
     record node (Trace.Added { target = z; new_ver = node.ver }));
  record node
    (Trace.Installed { ver = node.ver; view_members = View.members node.view })

let suspect node q =
  if (not (Pid.equal q (me node))) && not (Pid.Set.mem q node.faulty) then begin
    node.faulty <- Pid.Set.add q node.faulty;
    node.handle.Platform.disconnect_from ~from:q;
    record node (Trace.Faulty q)
  end

let send node ~dst ~category msg = node.handle.Platform.send ~dst ~category msg

(* ---- the two-phase update algorithm (as in the real protocol) ---- *)

let start_exclusion node victim =
  if Pid.equal node.mgr (me node) && node.phase = Idle then begin
    suspect node victim;
    let target_ver = node.ver + 1 in
    node.handle.Platform.broadcast ~dsts:(View.members node.view)
      ~category:cat_invite
      (Invite { op = Types.Remove victim; invite_ver = target_ver });
    node.phase <-
      Mgr_awaiting { op = Types.Remove victim; target_ver; oks = Pid.Set.empty }
  end

let check_mgr node =
  match node.phase with
  | Mgr_awaiting { op; target_ver; oks } ->
    let outstanding =
      List.filter (fun p -> not (Pid.Set.mem p oks)) (non_faulty_others node)
    in
    if outstanding = [] then begin
      node.phase <- Idle;
      apply_op node op;
      record node (Trace.Committed { ver = node.ver; commit_kind = `Update });
      node.handle.Platform.broadcast ~dsts:(non_faulty_others node)
        ~category:cat_commit
        (Commit { op; commit_ver = target_ver })
    end
  | Idle | Interrogating _ -> ()

(* ---- two-phase reconfiguration: interrogate, then commit a guess ---- *)

let start_reconf node =
  if node.phase = Idle then begin
    record node (Trace.Initiated_reconf { at_ver = node.ver });
    let my_reply = { r_ver = node.ver; r_seq = node.seq; r_next = node.next } in
    node.phase <- Interrogating { responses = [ (me node, my_reply) ] };
    node.handle.Platform.broadcast ~dsts:(View.members node.view)
      ~category:cat_interrogate Interrogate
  end

let check_reconf node =
  match node.phase with
  | Interrogating { responses } ->
    let responded p = List.exists (fun (q, _) -> Pid.equal p q) responses in
    let outstanding =
      List.filter (fun p -> not (responded p)) (non_faulty_others node)
    in
    if outstanding = [] && List.length responses >= View.majority node.view
    then begin
      node.phase <- Idle;
      (* Determine, crippled: we see pending proposals in the replies but,
         with no propose phase on record, cannot tell which could have been
         committed invisibly. Guess: trust the highest-ranked proposer. *)
      let longest =
        List.fold_left
          (fun acc (_, r) ->
            if List.length r.r_seq > List.length acc then r.r_seq else acc)
          node.seq responses
      in
      let candidates =
        List.concat_map
          (fun (_, r) ->
            List.filter_map
              (function
                | Types.Expected { canonical; coord; ver }
                  when ver = node.ver + 1 ->
                  Some (coord, canonical)
                | Types.Expected _ | Types.Awaiting_proposal _ -> None)
              r.r_next)
          responses
      in
      let canonical =
        if List.length longest > node.ver then longest
        else
          match candidates with
          | [] -> node.seq @ [ Types.Remove node.mgr ]
          | cands ->
            let rank_of coord =
              match View.rank node.view coord with
              | r -> r
              | exception Not_found -> min_int
            in
            let _, best =
              List.fold_left
                (fun ((br, _) as best) (coord, canon) ->
                  let r = rank_of coord in
                  if r > br then (r, canon) else best)
                (min_int, node.seq @ [ Types.Remove node.mgr ])
                cands
            in
            best
      in
      record node
        (Trace.Proposed
           { target_ver = List.length canonical;
             ops = Types.seq_drop node.ver canonical });
      (* Commit directly: no proposal round. *)
      List.iter
        (function
          | Types.Remove z -> suspect node z
          | Types.Add _ -> ())
        (Types.seq_drop node.ver canonical);
      List.iter (apply_op node) (Types.seq_drop node.ver canonical);
      node.mgr <- me node;
      record node (Trace.Became_mgr { at_ver = node.ver });
      record node (Trace.Committed { ver = node.ver; commit_kind = `Reconf });
      node.handle.Platform.broadcast ~dsts:(non_faulty_others node)
        ~category:cat_reconf_commit (Reconf_commit { canonical })
    end
  | Idle | Mgr_awaiting _ -> ()

(* ---- dispatch ---- *)

let dispatch node ~src msg =
  (match msg with
   | Invite { op; invite_ver } ->
     if invite_ver = node.ver + 1 then begin
       (match op with
        | Types.Remove z when Pid.equal z (me node) ->
          record node (Trace.Quit "invited to be excluded");
          node.handle.Platform.halt ()
        | Types.Remove z -> suspect node z
        | Types.Add _ -> ());
       node.next <-
         [ Types.Expected
             { canonical = node.seq @ [ op ]; coord = src; ver = invite_ver } ];
       send node ~dst:src ~category:cat_invite_ok (Invite_ok { ok_ver = invite_ver })
     end
   | Invite_ok { ok_ver } -> (
     match node.phase with
     | Mgr_awaiting ({ target_ver; _ } as mp) when target_ver = ok_ver ->
       mp.oks <- Pid.Set.add src mp.oks
     | Mgr_awaiting _ | Idle | Interrogating _ -> ())
   | Commit { op; commit_ver } ->
     if commit_ver = node.ver + 1 then begin
       (match op with
        | Types.Remove z when Pid.equal z (me node) ->
          record node (Trace.Quit "excluded");
          node.handle.Platform.halt ()
        | Types.Remove z -> suspect node z; apply_op node op
        | Types.Add _ -> apply_op node op);
       node.next <- []
     end
   | Interrogate ->
     send node ~dst:src ~category:cat_interrogate_ok
       (Interrogate_ok { r_ver = node.ver; r_seq = node.seq; r_next = node.next });
     (match View.higher_ranked node.view src with
      | hi -> List.iter (suspect node) hi
      | exception Not_found -> ());
     node.next <- node.next @ [ Types.Awaiting_proposal src ]
   | Interrogate_ok reply -> (
     match node.phase with
     | Interrogating r ->
       if not (List.exists (fun (p, _) -> Pid.equal p src) r.responses) then
         r.responses <- r.responses @ [ (src, reply) ]
     | Idle | Mgr_awaiting _ -> ())
   | Reconf_commit { canonical } ->
     if Types.is_prefix ~prefix:node.seq canonical then begin
       let missing = Types.seq_drop node.ver canonical in
       if
         List.exists
           (function
             | Types.Remove z -> Pid.equal z (me node)
             | Types.Add _ -> false)
           missing
       then begin
         record node (Trace.Quit "removed by reconfiguration");
         node.handle.Platform.halt ()
       end
       else begin
         List.iter
           (function Types.Remove z -> suspect node z | Types.Add _ -> ())
           missing;
         List.iter (apply_op node) missing;
         node.mgr <- src
       end
     end);
  check_mgr node;
  check_reconf node

(* ---- harness ---- *)

let create ?delay ?(seed = 1) ~n () =
  let runtime = Runtime.create ?delay ~seed () in
  let trace = Trace.create () in
  let initial = Pid.group n in
  let t = { runtime; trace; initial; nodes = Pid.Map.empty } in
  List.iter
    (fun pid ->
      let handle = Runtime.spawn runtime pid in
      let node =
        { handle;
          trace;
          view = View.initial initial;
          ver = 0;
          seq = [];
          next = [];
          faulty = Pid.Set.empty;
          mgr = List.hd initial;
          phase = Idle }
      in
      handle.Platform.set_receiver (fun ~src msg -> dispatch node ~src msg);
      t.nodes <- Pid.Map.add pid node t.nodes;
      record node (Trace.Installed { ver = 0; view_members = initial }))
    initial;
  t


let trace t = t.trace
let initial t = t.initial

let node t pid =
  match Pid.Map.find_opt pid t.nodes with
  | Some n -> n
  | None -> invalid_arg "Two_phase_reconfig.node: unknown pid"

let at t time f =
  ignore
    (Gmp_sim.Engine.schedule_at (Runtime.engine t.runtime) ~time f
      : Gmp_sim.Engine.handle)

let crash_at t time pid = at t time (fun () -> (node t pid).handle.Platform.halt ())

let exclusion_at t time ~coordinator ~victim =
  at t time (fun () -> start_exclusion (node t coordinator) victim)

let suspect_at t time ~observer ~target =
  at t time (fun () ->
      let n = node t observer in
      suspect n target;
      check_mgr n;
      check_reconf n)

let reconf_at t time pid =
  at t time (fun () ->
      let n = node t pid in
      start_reconf n;
      check_reconf n)

let partition_at t time groups =
  at t time (fun () -> Gmp_net.Network.partition (Runtime.network t.runtime) groups)

let run ?(until = 200.0) t = Runtime.run ~until t.runtime

let views t =
  List.map
    (fun (pid, node) -> (pid, node.ver, View.members node.view))
    (Pid.Map.bindings t.nodes)
