(* The per-process protocol state machine: the paper's Final Update Algorithm
   (Figures 8 and 9), Final Reconfiguration Algorithm (Figure 10) with
   procedures Determine and GetStable (Figure 6), and the Join procedure
   (§7), in event-driven form.

   Each `await (X or faulty(q))` of the pseudocode becomes a completion
   predicate re-evaluated whenever an X arrives or a faulty event fires -
   exactly the paper's disjunction - with F1 observations (heartbeat
   timeouts), F2 gossip (suspicion sets riding on messages) and S1 isolation
   (incoming-channel disconnection) as the inputs.

   Re-entrancy discipline: [suspect] only does bookkeeping (sets, S1
   disconnect, trace, report). Protocol progress - completing awaits,
   starting updates, initiating reconfiguration - happens in [poke], which
   every top-level entry point (message dispatch, detector callback,
   injected suspicion) runs once its handler has finished. This keeps the
   state machine's transitions atomic with respect to each other. *)

open Gmp_base
module Platform = Gmp_platform.Platform
module Heartbeat = Gmp_detector.Heartbeat

type mgr_phase = {
  mp_op : Types.op;
  mp_target_ver : int;
  mutable mp_oks : Pid.Set.t; (* respondents; self excluded *)
  mp_compressed : bool; (* the invitation rode on the previous commit *)
}

type reconf_phase =
  | R_interrogating of {
      mutable responses : (Pid.t * Wire.interrogate_reply) list;
          (* head entry is the initiator's own state *)
    }
  | R_proposing of { r_prop : Wire.proposal; mutable r_oks : Pid.Set.t }

type t = {
  node : Wire.t Platform.node;
  trace : Trace.t;
  config : Config.t;
  mutable view : View.t;
  mutable ver : int;
  mutable seq : Types.seq;
  mutable next : Types.expectation list;
  mutable faulty : Pid.Set.t; (* believed faulty, not yet removed *)
  mutable recovered : Pid.Set.t; (* pending joiners (coordinator's queue) *)
  mutable operating : Pid.Set.t; (* joiners known to be on the way in *)
  mutable mgr : Pid.t;
  mutable mgr_phase : mgr_phase option;
  mutable reconf : reconf_phase option;
  mutable has_quit : bool;
  mutable joined : bool; (* false for a joiner without a view yet *)
  mutable detector : Heartbeat.t option;
  mutable peer_cache : Pid.t list option;
      (* memoized heartbeat peer list; invalidated on view change, new
         suspicion, welcome, quit and crash instead of being refiltered on
         every tick of every process *)
  mutable app_handler : src:Pid.t -> Wire.app -> unit;
  mutable app_buffer : (Pid.t * int * Wire.app) list;
  mutable on_view_change : t -> unit;
  mutable stash : (Pid.t * Wire.interrogate_reply) list;
      (* reconf_reuse: unsolicited interrogation replies received at the
         current version (cleared on every install) *)
  mutable initiation_deferred : bool;
      (* reconf_reuse: this version's initiation already waited its grace
         period for pre-sent replies (cleared on every install) *)
}

(* ---- accessors ---- *)

let self t = t.node.Platform.pid
let pid = self
let view t = t.view
let version t = t.ver
let seq t = t.seq
let manager t = t.mgr
let faulty_set t = t.faulty
let has_quit t = t.has_quit
let crashed t = not (t.node.Platform.alive ())
let operational t = (not t.has_quit) && t.node.Platform.alive ()
let joined t = t.joined
let is_mgr t = t.joined && Pid.equal t.mgr (self t)
let node t = t.node
let now t = t.node.Platform.now ()

let set_app_handler t handler = t.app_handler <- handler
let set_on_view_change t handler = t.on_view_change <- handler

let record t kind =
  let index, vc = t.node.Platform.local_event () in
  Trace.record t.trace ~owner:(self t) ~index
    ~time:(t.node.Platform.now ()) ~vc kind

let send t ~dst payload =
  t.node.Platform.send ~dst ~category:(Wire.category_id payload) payload

let broadcast t ~dsts payload =
  t.node.Platform.broadcast ~dsts ~category:(Wire.category_id payload) payload

let view_others t = List.filter (fun p -> not (Pid.equal p (self t))) (View.members t.view)

let non_faulty_others t =
  List.filter (fun p -> not (Pid.Set.mem p t.faulty)) (view_others t)

let invalidate_peers t = t.peer_cache <- None

(* The heartbeat detector's peer set, memoized: every state change that can
   affect it goes through [invalidate_peers]. *)
let heartbeat_peers t =
  match t.peer_cache with
  | Some peers -> peers
  | None ->
    let peers =
      if t.joined && operational t then non_faulty_others t else []
    in
    t.peer_cache <- Some peers;
    peers

(* ---- quit ---- *)

let do_quit t reason =
  if operational t then begin
    record t (Trace.Quit reason);
    t.has_quit <- true;
    invalidate_peers t;
    t.mgr_phase <- None;
    t.reconf <- None;
    (match t.detector with None -> () | Some d -> Heartbeat.stop d);
    t.node.Platform.halt ()
  end

(* ---- faultyp(q): the single suspicion entry point (F1 and F2) ---- *)

let relevant_suspect t q =
  View.mem t.view q || Pid.Set.mem q t.recovered || Pid.Set.mem q t.operating

let suspect ?(report = true) t q =
  if
    operational t
    && (not (Pid.equal q (self t)))
    && (not (Pid.Set.mem q t.faulty))
    && relevant_suspect t q
  then begin
    t.faulty <- Pid.Set.add q t.faulty;
    invalidate_peers t;
    t.recovered <- Pid.Set.remove q t.recovered;
    t.operating <- Pid.Set.remove q t.operating;
    (* S1: never receive from q again. *)
    t.node.Platform.disconnect_from ~from:q;
    (match t.detector with None -> () | Some d -> Heartbeat.forget d q);
    record t (Trace.Faulty q);
    (* Ask the coordinator to start the exclusion (unless that is us, or the
       coordinator itself is the suspect / already suspected). *)
    if
      report && t.joined
      && (not (is_mgr t))
      && (not (Pid.equal t.mgr q))
      && not (Pid.Set.mem t.mgr t.faulty)
    then send t ~dst:t.mgr (Wire.Faulty_report q);
    (* §8 reuse optimization: an initiator we had answered has failed, so
       another reconfiguration of the same version is coming - pre-send our
       interrogation reply to the predicted successor so it can skip one
       round towards us. (Only for answered initiators: the successor's own
       detection lags ours by a full timeout, giving the pre-send time to
       land before it initiates.) *)
    if
      t.config.Config.reconf_reuse && t.joined
      && List.exists
           (function
             | Types.Awaiting_proposal r -> Pid.equal r q
             | Types.Expected _ -> false)
           t.next
    then begin
      let successor =
        List.find_opt
          (fun p -> not (Pid.Set.mem p t.faulty))
          (View.members t.view)
      in
      match successor with
      | Some s
        when (not (Pid.equal s (self t)))
             && not
                  (List.exists
                     (function
                       | Types.Awaiting_proposal r -> Pid.equal r s
                       | Types.Expected _ -> false)
                     t.next) ->
        send t ~dst:s
          (Wire.Interrogate_ok
             { reply_ver = t.ver; reply_seq = t.seq; reply_next = t.next });
        t.next <- t.next @ [ Types.Awaiting_proposal s ]
      | Some _ | None -> ()
    end
  end

let note_operating t q =
  if operational t && not (Pid.Set.mem q t.operating) && not (View.mem t.view q)
  then begin
    t.operating <- Pid.Set.add q t.operating;
    record t (Trace.Operating q)
  end

let gossip t ~faulty ~recovered =
  List.iter (fun q -> suspect ~report:false t q) faulty;
  List.iter (fun q -> note_operating t q) recovered

(* ---- local view updates ---- *)

let install_finish t =
  t.stash <- []; (* pre-sent replies are only valid within one version *)
  t.initiation_deferred <- false;
  let ready, rest = List.partition (fun (_, v, _) -> v <= t.ver) t.app_buffer in
  t.app_buffer <- rest;
  List.iter (fun (src, _, payload) -> t.app_handler ~src payload) ready;
  t.on_view_change t

let apply_op t op =
  match op with
  | Types.Remove z when Pid.equal z (self t) -> do_quit t "removed from view"
  | Types.Remove z ->
    if not (View.mem t.view z) then
      record t (Trace.Violation (Fmt.str "remove of non-member %a" Pid.pp z));
    t.view <- View.remove t.view z;
    invalidate_peers t;
    t.ver <- t.ver + 1;
    t.seq <- t.seq @ [ op ];
    t.faulty <- Pid.Set.remove z t.faulty;
    t.recovered <- Pid.Set.remove z t.recovered;
    t.operating <- Pid.Set.remove z t.operating;
    record t (Trace.Removed { target = z; new_ver = t.ver });
    record t (Trace.Installed { ver = t.ver; view_members = View.members t.view })
  | Types.Add z ->
    if View.mem t.view z then
      record t (Trace.Violation (Fmt.str "add of existing member %a" Pid.pp z))
    else begin
      t.view <- View.add t.view z;
      invalidate_peers t;
      t.ver <- t.ver + 1;
      t.seq <- t.seq @ [ op ];
      t.recovered <- Pid.Set.remove z t.recovered;
      t.operating <- Pid.Set.remove z t.operating;
      record t (Trace.Added { target = z; new_ver = t.ver });
      record t
        (Trace.Installed { ver = t.ver; view_members = View.members t.view })
    end

let apply_ops t ops =
  List.iter (fun op -> if operational t then apply_op t op) ops;
  if operational t then install_finish t

(* Adopt the canonical committed sequence up to a proposal's target version
   (reconfiguration installs "the cumulative system progress"). *)
let sync_to t (prop : Wire.proposal) =
  if t.ver > prop.target_ver then
    (* We are ahead of the proposal; nothing to apply (stale commit). *)
    ()
  else if not (Types.is_prefix ~prefix:t.seq prop.canonical_seq) then
    record t
      (Trace.Violation
         (Fmt.str "local seq %a is not a prefix of canonical %a" Types.pp_seq
            t.seq Types.pp_seq prop.canonical_seq))
  else begin
    let missing = Types.seq_drop t.ver prop.canonical_seq in
    (* GMP-1: record faultyp(z) before removing z. *)
    List.iter
      (function
        | Types.Remove z ->
          if not (Pid.equal z (self t)) then suspect ~report:false t z
        | Types.Add z -> note_operating t z)
      missing;
    apply_ops t missing
  end

(* A vote (Invite_ok / Propose_ok / interrogation reply) counts only from a
   current, non-condemned view member: a stale OK from a process that has
   left the view, or from one we already believe faulty, must not help
   satisfy a majority gate. Checked both when an OK arrives and when votes
   are counted — a respondent can become faulty between the two. *)
let ok_acceptable t src =
  View.mem t.view src && not (Pid.Set.mem src t.faulty)

(* ---- GetNext: the coordinator's queue (Recovered first, then Faulty) ---- *)

let get_next t ~excluding =
  let excluded z = List.exists (Pid.equal z) excluding in
  let joiner =
    List.find_opt
      (fun z -> (not (excluded z)) && not (View.mem t.view z))
      (Pid.Set.elements t.recovered)
  in
  match joiner with
  | Some j -> Some (Types.Add j)
  | None ->
    (* Seniority order: clean up dead seniors first. *)
    let victim =
      List.find_opt
        (fun z -> Pid.Set.mem z t.faulty && not (excluded z))
        (View.members t.view)
    in
    (match victim with Some z -> Some (Types.Remove z) | None -> None)

(* ---- Mgr role: the Final Update Algorithm (Figure 8) ---- *)

let rec maybe_start_update t =
  if
    operational t && is_mgr t && t.mgr_phase = None && t.reconf = None
  then
    match get_next t ~excluding:[] with
    | None -> ()
    | Some op ->
      let target_ver = t.ver + 1 in
      broadcast t ~dsts:(View.members t.view)
        (Wire.Invite { op; invite_ver = target_ver });
      t.mgr_phase <-
        Some
          { mp_op = op;
            mp_target_ver = target_ver;
            mp_oks = Pid.Set.empty;
            mp_compressed = false };
      recheck_mgr_phase t

and recheck_mgr_phase t =
  match t.mgr_phase with
  | None -> ()
  | Some mp when operational t ->
    let outstanding =
      List.filter (fun p -> not (Pid.Set.mem p mp.mp_oks)) (non_faulty_others t)
    in
    if outstanding = [] then begin
      let live_oks = Pid.Set.filter (ok_acceptable t) mp.mp_oks in
      let votes = Pid.Set.cardinal live_oks + 1 in
      if t.config.require_majority_update && votes < View.majority t.view then
        do_quit t "mgr: could not gather a majority of OKs"
      else commit_update t mp
    end
  | Some _ -> ()

and commit_update t mp =
  t.mgr_phase <- None;
  apply_ops t [ mp.mp_op ];
  if operational t then begin
    (match mp.mp_op with
     | Types.Add j ->
       send t ~dst:j
         (Wire.Welcome
            { w_members = View.members t.view; w_ver = t.ver; w_seq = t.seq })
     | Types.Remove _ -> ());
    let contingent =
      if t.config.compressed then get_next t ~excluding:[] else None
    in
    record t (Trace.Committed { ver = t.ver; commit_kind = `Update });
    broadcast t ~dsts:(non_faulty_others t)
      (Wire.Commit
         { op = mp.mp_op;
           commit_ver = t.ver;
           contingent;
           faulty = Pid.Set.elements t.faulty;
           recovered = Pid.Set.elements t.recovered });
    match contingent with
    | Some op ->
      t.mgr_phase <-
        Some
          { mp_op = op;
            mp_target_ver = t.ver + 1;
            mp_oks = Pid.Set.empty;
            mp_compressed = true };
      recheck_mgr_phase t
    | None -> maybe_start_update t
  end

(* ---- Reconfiguration: succession rule and the three phases ---- *)

and maybe_initiate t =
  (* This runs after every delivery. The empty-faulty-set bail-out covers
     quiet traffic; when suspicions ARE outstanding (long stretches of a
     churny run), deciding "are all my seniors faulty?" must still not
     materialise the O(rank) [View.higher_ranked] list per message — so walk
     the view once: initiation is due iff the scan reaches self having seen
     at least one senior, all of them faulty. *)
  if
    operational t && t.joined
    && (not (Pid.Set.is_empty t.faulty))
    && (not (is_mgr t))
    && t.reconf = None
    && View.mem t.view (self t)
  then begin
    let rec seniors_all_faulty any_senior = function
      | [] -> false (* unreachable: self is a view member (guard above) *)
      | q :: rest ->
        if Pid.equal q (self t) then
          (* [any_senior = false] here means self heads the view: the Mgr
             role, not an initiator. *)
          any_senior
        else if Pid.Set.mem q t.faulty then seniors_all_faulty true rest
        else false
    in
    if seniors_all_faulty false (View.members t.view) then begin
        (* §8 reuse: give in-flight pre-sent replies one grace period to
           land before interrogating (once per version). *)
        if
          t.config.Config.reconf_reuse
          && (not t.initiation_deferred)
          && List.exists
               (fun p ->
                 (not (Pid.Set.mem p t.faulty))
                 && (not (Pid.equal p (self t)))
                 && not (List.exists (fun (q, _) -> Pid.equal p q) t.stash))
               (View.members t.view)
        then begin
          t.initiation_deferred <- true;
          ignore
            (t.node.Platform.set_timer ~delay:t.config.Config.reconf_reuse_grace
               (fun () -> poke t)
              : Platform.timer)
        end
        else begin
        (* HiFaulty(p) is full: initiate (§4.2). *)
        record t (Trace.Initiated_reconf { at_ver = t.ver });
        let my_reply =
          Wire.{ reply_ver = t.ver; reply_seq = t.seq; reply_next = t.next }
        in
        (* §8 reuse: pre-sent replies (same version, view members) already
           count as responses, and their senders need not be interrogated. *)
        let reused =
          List.filter
            (fun ((p, reply) : _ * Wire.interrogate_reply) ->
              View.mem t.view p
              && (not (Pid.equal p (self t)))
              && reply.reply_ver >= t.ver - 1
              && reply.reply_ver <= t.ver + 1)
            t.stash
        in
        t.stash <- [];
        t.reconf <-
          Some (R_interrogating { responses = (self t, my_reply) :: reused });
        let dsts =
          List.filter
            (fun p -> not (List.exists (fun (q, _) -> Pid.equal p q) reused))
            (View.members t.view)
        in
        broadcast t ~dsts Wire.Interrogate;
        recheck_reconf t
        end
      end
  end

and recheck_reconf t =
  match t.reconf with
  | None -> ()
  | Some phase when operational t -> (
    match phase with
    | R_interrogating r ->
      let responded p = List.exists (fun (q, _) -> Pid.equal p q) r.responses in
      let outstanding =
        List.filter (fun p -> not (responded p)) (non_faulty_others t)
      in
      if outstanding = [] then begin
        let live_responses =
          List.filter
            (fun (p, _) -> Pid.equal p (self t) || ok_acceptable t p)
            r.responses
        in
        if
          t.config.Config.require_majority_reconf
          && List.length live_responses < View.majority t.view
        then do_quit t "reconf: interrogation could not gather a majority"
        else begin
          let prop = determine t r.responses in
          record t
            (Trace.Proposed
               { target_ver = prop.Wire.target_ver;
                 ops = Types.seq_drop t.ver prop.Wire.canonical_seq });
          t.reconf <- Some (R_proposing { r_prop = prop; r_oks = Pid.Set.empty });
          broadcast t ~dsts:(non_faulty_others t) (Wire.Propose prop);
          recheck_reconf t
        end
      end
    | R_proposing r ->
      let outstanding =
        List.filter (fun p -> not (Pid.Set.mem p r.r_oks)) (non_faulty_others t)
      in
      if outstanding = [] then begin
        let live_oks = Pid.Set.filter (ok_acceptable t) r.r_oks in
        let votes = Pid.Set.cardinal live_oks + 1 in
        if
          t.config.Config.require_majority_reconf
          && votes < View.majority t.view
        then do_quit t "reconf: proposal could not gather a majority"
        else commit_reconf t r.r_prop
      end)
  | Some _ -> ()

(* Procedure Determine (Figure 6): pick the version to (re-)install, the
   removal list and the contingent first change of the new regime. *)
and determine t responses : Wire.proposal =
  let my_ver = t.ver in
  (* Proposition 5.1: respondents' versions lie in [my_ver-1, my_ver+1]. *)
  List.iter
    (fun ((p, reply) : Pid.t * Wire.interrogate_reply) ->
      if reply.reply_ver < my_ver - 1 || reply.reply_ver > my_ver + 1 then
        record t
          (Trace.Violation
             (Fmt.str "interrogation reply from %a has version %d, mine %d"
                Pid.pp p reply.reply_ver my_ver)))
    responses;
  let ahead =
    List.filter (fun ((_, r) : _ * Wire.interrogate_reply) -> r.reply_ver > my_ver) responses
  in
  let behind =
    List.filter (fun ((_, r) : _ * Wire.interrogate_reply) -> r.reply_ver < my_ver) responses
  in
  let longest_seq =
    List.fold_left
      (fun acc ((_, r) : _ * Wire.interrogate_reply) ->
        if List.length r.reply_seq > List.length acc then r.reply_seq else acc)
      t.seq responses
  in
  List.iter
    (fun ((p, r) : Pid.t * Wire.interrogate_reply) ->
      if not (Types.is_prefix ~prefix:r.reply_seq longest_seq) then
        record t
          (Trace.Violation
             (Fmt.str "reply seq of %a is not a prefix of the longest seq"
                Pid.pp p)))
    responses;
  (* ProposalsForVer(v, r): pending proposals for version v reported by the
     respondents, deduplicated by proposing coordinator (a coordinator makes
     at most one proposal per version). *)
  let proposals_for v =
    let collect acc ((_, r) : _ * Wire.interrogate_reply) =
      List.fold_left
        (fun acc -> function
          | Types.Awaiting_proposal _ -> acc
          | Types.Expected { canonical; coord; ver } ->
            if ver = v && not (List.exists (fun (c, _) -> Pid.equal c coord) acc)
            then (coord, canonical) :: acc
            else acc)
        acc r.reply_next
    in
    List.rev (List.fold_left collect [] responses)
  in
  if List.length (proposals_for (my_ver + 1)) > 2 then
    record t
      (Trace.Violation
         (Fmt.str "more than two proposals for version %d (Prop 5.5)"
            (my_ver + 1)));
  let target_ver, canonical =
    if ahead <> [] then
      (* Case L <> {}: complete the installation the ahead group committed. *)
      (List.length longest_seq, longest_seq)
    else if behind <> [] then
      (* Case L = {}, S <> {}: re-announce my version for the stragglers. *)
      (my_ver, t.seq)
    else begin
      (* Case L = S = {}: propose a fresh change for version my_ver + 1:
         propagate a detected in-flight proposal, or remove Mgr. *)
      let canonical =
        match proposals_for (my_ver + 1) with
        | [] -> t.seq @ [ Types.Remove t.mgr ]
        | [ (_, canon) ] -> canon
        | many -> get_stable t many
      in
      if not (Types.is_prefix ~prefix:t.seq canonical) then begin
        record t
          (Trace.Violation "propagated proposal does not extend my seq");
        (my_ver + 1, t.seq @ [ Types.Remove t.mgr ])
      end
      else (List.length canonical, canonical)
    end
  in
  let invis =
    let excluded =
      List.map Types.op_target (Types.seq_drop my_ver canonical)
    in
    let op_of canon =
      (* The single op taking target_ver to target_ver + 1. *)
      if List.length canon = target_ver + 1 && Types.is_prefix ~prefix:canonical canon
      then (match Types.seq_drop target_ver canon with op :: _ -> Some op | [] -> None)
      else None
    in
    match proposals_for (target_ver + 1) with
    | [] -> get_next t ~excluding:excluded
    | [ (_, canon) ] -> op_of canon
    | many -> op_of (get_stable t many)
  in
  Wire.
    { target_ver;
      canonical_seq = canonical;
      invis;
      prop_faulty = Pid.Set.elements t.faulty }

(* Procedure GetStable (Figure 6): of the (at most two, Prop 5.5) detected
   proposals for a version, only the one issued by the lowest-ranked proposer
   can have been committed invisibly (Prop 5.6); propagate that one. *)
and get_stable t candidates =
  let rank_of coord =
    match View.rank t.view coord with
    | r -> r
    | exception Not_found -> max_int
  in
  match candidates with
  | [] -> invalid_arg "get_stable: no candidates"
  | first :: rest ->
    let best =
      List.fold_left
        (fun ((bc, _) as best) ((c, _) as cand) ->
          if
            rank_of c < rank_of bc
            || (rank_of c = rank_of bc && Pid.compare c bc < 0)
          then cand
          else best)
        first rest
    in
    snd best

and commit_reconf t prop =
  t.reconf <- None;
  t.mgr <- self t;
  record t (Trace.Became_mgr { at_ver = t.ver });
  let ver_before = t.ver in
  sync_to t prop;
  if operational t then begin
    record t (Trace.Committed { ver = t.ver; commit_kind = `Reconf });
    (* A propagated in-flight Add never had its state transfer: the dead
       coordinator was the one supposed to welcome the joiner. FIFO makes the
       Welcome arrive before the commit, so the joiner can answer the
       commit's contingent invitation. *)
    List.iter
      (function
        | Types.Add j ->
          send t ~dst:j
            (Wire.Welcome
               { w_members = View.members t.view;
                 w_ver = t.ver;
                 w_seq = t.seq })
        | Types.Remove _ -> ())
      (Types.seq_drop ver_before prop.Wire.canonical_seq);
    broadcast t ~dsts:(non_faulty_others t) (Wire.Reconf_commit prop);
    (* Begin the Mgr role with the contingent change. *)
    match prop.Wire.invis with
    | Some op ->
      t.mgr_phase <-
        Some
          { mp_op = op;
            mp_target_ver = t.ver + 1;
            mp_oks = Pid.Set.empty;
            mp_compressed = true };
      recheck_mgr_phase t
    | None -> maybe_start_update t
  end

(* ---- the poke: run protocol progress after any state change ---- *)

and poke t =
  if operational t then begin
    recheck_mgr_phase t;
    recheck_reconf t;
    maybe_start_update t;
    maybe_initiate t
  end

(* ---- outer-process handlers ---- *)

let handle_contingent t ~coord contingent =
  match contingent with
  | None -> t.next <- []
  | Some (Types.Remove z) when Pid.equal z (self t) ->
    do_quit t "contingently excluded"
  | Some op ->
    (match op with
     | Types.Remove z -> suspect ~report:false t z
     | Types.Add z -> note_operating t z);
    t.next <-
      [ Types.Expected
          { canonical = t.seq @ [ op ]; coord; ver = t.ver + 1 } ];
    send t ~dst:coord (Wire.Invite_ok { ok_ver = t.ver + 1 })

let handle_invite t ~src op invite_ver =
  if invite_ver <= t.ver then () (* stale *)
  else if invite_ver > t.ver + 1 then
    (* From a future view: the §3 buffering rule delays such messages until
       the view is installed. It only reaches a process the coordinator has
       already condemned (commits stopped flowing to it), so it never
       becomes deliverable - dropping is equivalent. *)
    ()
  else
    match op with
    | Types.Remove z when Pid.equal z (self t) -> do_quit t "invited to be excluded"
    | _ ->
      (match op with
       | Types.Remove z -> suspect ~report:false t z
       | Types.Add z -> note_operating t z);
      t.next <-
        [ Types.Expected
            { canonical = t.seq @ [ op ]; coord = src; ver = invite_ver } ];
      send t ~dst:src (Wire.Invite_ok { ok_ver = invite_ver })

let handle_invite_ok t ~src ok_ver =
  match t.mgr_phase with
  | Some mp when mp.mp_target_ver = ok_ver && ok_acceptable t src ->
    mp.mp_oks <- Pid.Set.add src mp.mp_oks
  | Some _ | None -> ()

let handle_commit t ~src (c : Wire.commit) =
  if List.exists (Pid.equal (self t)) c.faulty then
    do_quit t "declared faulty in a commit"
  else if c.commit_ver = t.ver then begin
    (* Already at this version (typically: a joiner welcomed with it). The
       piggybacked invitation for the next change still needs answering. *)
    gossip t ~faulty:c.faulty ~recovered:c.recovered;
    if operational t then handle_contingent t ~coord:src c.contingent
  end
  else if c.commit_ver < t.ver then () (* stale duplicate *)
  else if c.commit_ver > t.ver + 1 then
    record t
      (Trace.Violation
         (Fmt.str "commit for version %d while at %d (FIFO gap)" c.commit_ver
            t.ver))
  else begin
    gossip t ~faulty:c.faulty ~recovered:c.recovered;
    apply_ops t [ c.op ];
    if operational t then handle_contingent t ~coord:src c.contingent
  end

let handle_interrogate t ~src =
  if not t.joined then ()
  else if not (View.mem t.view src) then ()
  else if not (View.mem t.view (self t)) then ()
  else if View.rank t.view src < View.rank t.view (self t) then
    (* Figure 10: a process outranked by the initiator has been declared
       faulty by the new regime. *)
    do_quit t "outranked by a reconfiguration initiator"
  else begin
    let already_pre_sent =
      t.config.Config.reconf_reuse
      && List.exists
           (function
             | Types.Awaiting_proposal r -> Pid.equal r src
             | Types.Expected _ -> false)
           t.next
    in
    (* A pre-sent reply (§8 reuse) that raced this interrogation is still in
       flight towards the initiator and will count there; replying again
       would be a duplicate. *)
    if not already_pre_sent then begin
      let reply =
        Wire.{ reply_ver = t.ver; reply_seq = t.seq; reply_next = t.next }
      in
      send t ~dst:src (Wire.Interrogate_ok reply)
    end;
    (* HiFaulty(src) is implied by the succession rule: everyone senior to
       the initiator. *)
    List.iter
      (fun q -> suspect ~report:false t q)
      (View.higher_ranked t.view src);
    if not already_pre_sent then
      t.next <- t.next @ [ Types.Awaiting_proposal src ]
  end

let handle_interrogate_ok t ~src reply =
  match t.reconf with
  | Some (R_interrogating r) ->
    if not (List.exists (fun (p, _) -> Pid.equal p src) r.responses) then
      r.responses <- r.responses @ [ (src, reply) ]
  | Some (R_proposing _) -> ()
  | None ->
    (* An unsolicited, pre-sent reply (§8 reuse). Keep the latest per
       sender; install_finish clears the stash at every version change. *)
    if t.config.Config.reconf_reuse then
      t.stash <-
        (src, reply)
        :: List.filter (fun (p, _) -> not (Pid.equal p src)) t.stash

let pending_removal_of_self t (prop : Wire.proposal) =
  List.exists
    (function
      | Types.Remove z -> Pid.equal z (self t)
      | Types.Add _ -> false)
    (Types.seq_drop t.ver prop.canonical_seq)

let handle_propose t ~src (prop : Wire.proposal) =
  if List.exists (Pid.equal (self t)) prop.prop_faulty then
    do_quit t "declared faulty in a proposal"
  else if pending_removal_of_self t prop then
    do_quit t "proposed for removal"
  else begin
    gossip t ~faulty:prop.prop_faulty ~recovered:[];
    (* faultyp(RLr) upon receipt of the proposal (Prop 6.2). *)
    List.iter
      (function
        | Types.Remove z -> suspect ~report:false t z
        | Types.Add z -> note_operating t z)
      (Types.seq_drop t.ver prop.canonical_seq);
    t.next <-
      [ Types.Expected
          { canonical = prop.canonical_seq;
            coord = src;
            ver = prop.target_ver } ];
    send t ~dst:src (Wire.Propose_ok { pok_ver = prop.target_ver })
  end

let handle_propose_ok t ~src pok_ver =
  match t.reconf with
  | Some (R_proposing r)
    when r.r_prop.Wire.target_ver = pok_ver && ok_acceptable t src ->
    r.r_oks <- Pid.Set.add src r.r_oks
  | Some _ | None -> ()

let handle_reconf_commit t ~src (prop : Wire.proposal) =
  if List.exists (Pid.equal (self t)) prop.prop_faulty then
    do_quit t "declared faulty in a reconfiguration commit"
  else if pending_removal_of_self t prop then do_quit t "removed by reconfiguration"
  else begin
    gossip t ~faulty:prop.prop_faulty ~recovered:[];
    t.reconf <- None; (* a new coordinator has taken charge *)
    sync_to t prop;
    if operational t then begin
      t.mgr <- src;
      (* Proposition 6.4: pending exclusion requests are not lost across a
         coordinator change - re-report local suspicions to the new Mgr. *)
      Pid.Set.iter
        (fun q -> if View.mem t.view q then send t ~dst:src (Wire.Faulty_report q))
        t.faulty;
      handle_contingent t ~coord:src prop.invis
    end
  end

let handle_welcome t ~src w_members w_ver w_seq =
  if not t.joined then begin
    t.view <- View.of_list w_members;
    t.ver <- w_ver;
    t.seq <- w_seq;
    t.mgr <- src;
    t.joined <- true;
    invalidate_peers t;
    record t (Trace.Installed { ver = w_ver; view_members = w_members });
    install_finish t
  end

let handle_join t j =
  if operational t && t.joined then begin
    if is_mgr t then begin
      if
        (not (View.mem t.view j))
        && (not (Pid.Set.mem j t.recovered))
        && not (Pid.Set.mem j t.faulty)
      then begin
        t.recovered <- Pid.Set.add j t.recovered;
        note_operating t j
      end
    end
    else if not (Pid.Set.mem t.mgr t.faulty) then
      send t ~dst:t.mgr (Wire.Join_forward j)
  end

let handle_app t ~src app_ver payload =
  if app_ver > t.ver then t.app_buffer <- t.app_buffer @ [ (src, app_ver, payload) ]
  else t.app_handler ~src payload

(* ---- dispatch ---- *)

let dispatch t ~src (msg : Wire.t) =
  if operational t then begin
    (match msg with
     (* A joiner without a view yet understands only state transfer,
        heartbeats and (buffered) application traffic; everything else
        presupposes membership. *)
     | Wire.Faulty_report _ | Wire.Join_request | Wire.Join_forward _
     | Wire.Invite _ | Wire.Invite_ok _ | Wire.Commit _ | Wire.Interrogate
     | Wire.Interrogate_ok _ | Wire.Propose _ | Wire.Propose_ok _
     | Wire.Reconf_commit _
       when not t.joined ->
       ()
     | Wire.Heartbeat -> (
       match t.detector with
       | None -> ()
       | Some d -> Heartbeat.beat_received d ~from:src)
     | Wire.Faulty_report q -> suspect t q
     | Wire.Join_request -> handle_join t src
     | Wire.Join_forward j -> handle_join t j
     | Wire.Invite { op; invite_ver } -> handle_invite t ~src op invite_ver
     | Wire.Invite_ok { ok_ver } -> handle_invite_ok t ~src ok_ver
     | Wire.Commit c -> handle_commit t ~src c
     | Wire.Welcome { w_members; w_ver; w_seq } ->
       handle_welcome t ~src w_members w_ver w_seq
     | Wire.Interrogate -> handle_interrogate t ~src
     | Wire.Interrogate_ok reply -> handle_interrogate_ok t ~src reply
     | Wire.Propose prop -> handle_propose t ~src prop
     | Wire.Propose_ok { pok_ver } -> handle_propose_ok t ~src pok_ver
     | Wire.Reconf_commit prop -> handle_reconf_commit t ~src prop
     | Wire.App { app_ver; payload } -> handle_app t ~src app_ver payload);
    poke t
  end

(* ---- construction ---- *)

let create ?(joiner = false) ~node ~trace ~config ~initial () =
  let pid_ = node.Platform.pid in
  let t =
    { node;
      trace;
      config;
      view = (if joiner then View.of_list [] else View.initial initial);
      ver = 0;
      seq = [];
      next = [];
      faulty = Pid.Set.empty;
      recovered = Pid.Set.empty;
      operating = Pid.Set.empty;
      mgr =
        (if joiner then pid_
         else
           match initial with
           | [] -> invalid_arg "Member.create: empty initial group"
           | head :: _ -> head);
      mgr_phase = None;
      reconf = None;
      has_quit = false;
      joined = not joiner;
      detector = None;
      app_handler = (fun ~src:_ _ -> ());
      app_buffer = [];
      on_view_change = (fun _ -> ());
      stash = [];
      initiation_deferred = false;
      peer_cache = None }
  in
  node.Platform.set_receiver (fun ~src msg -> dispatch t ~src msg);
  if t.joined then
    record t (Trace.Installed { ver = 0; view_members = initial });
  if config.Config.heartbeats then begin
    let d =
      Heartbeat.create ~now:node.Platform.now ~set_timer:node.Platform.set_timer
        ~interval:config.Config.heartbeat_interval
        ~timeout:config.Config.heartbeat_timeout
        ~send_beats:(fun peers -> broadcast t ~dsts:peers Wire.Heartbeat)
        ~peers:(fun () -> heartbeat_peers t)
        ~suspect:(fun q ->
          suspect t q;
          poke t)
        ()
    in
    t.detector <- Some d;
    Heartbeat.start d
  end;
  t

let start_join ?(retry_interval = 15.0) t ~contacts =
  (* Self can never admit itself; filtering up front also guards the case of
     a contacts list containing only self (sending to self would blow up in
     the network layer). *)
  let contacts = List.filter (fun p -> not (Pid.equal p (self t))) contacts in
  match contacts with
  | [] -> invalid_arg "Member.start_join: no contacts besides self"
  | first :: _ ->
    send t ~dst:first Wire.Join_request;
    (* Retry round-robin over the contacts until admitted: the first contact
       (or the coordinator holding our request) may die before our join is
       committed. Use-then-increment, so the first retry goes back to
       contacts.(0) instead of skipping it until a full wrap. *)
    let n = List.length contacts in
    let cursor = ref 0 in
    t.node.Platform.every ~interval:retry_interval (fun () ->
        if (not t.joined) && operational t then begin
          let contact = List.nth contacts (!cursor mod n) in
          incr cursor;
          send t ~dst:contact Wire.Join_request
        end)

(* ---- external injection points (scripts, harness) ---- *)

let inject_suspicion t q =
  suspect t q;
  poke t

let inject_crash t =
  if t.node.Platform.alive () then begin
    record t Trace.Crashed;
    invalidate_peers t;
    (match t.detector with None -> () | Some d -> Heartbeat.stop d);
    t.node.Platform.halt ()
  end

(* ---- application traffic ---- *)

let send_app t ~dst payload =
  if operational t then
    send t ~dst (Wire.App { app_ver = t.ver; payload })

let broadcast_app t payload =
  if operational t then
    broadcast t ~dsts:(non_faulty_others t)
      (Wire.App { app_ver = t.ver; payload })

(* ---- checkpoint / restore for the schedule explorer ----

   Everything mutable in [t] is captured by value. The only mutable
   sub-records are the phase records ([mgr_phase]'s OK set, [reconf]'s
   response list / OK set): those are copied both at capture and at restore,
   so later phase progress never writes through into a checkpoint and one
   checkpoint restores any number of times. The protocol payload types
   (views, sets, seqs, wire records) are immutable and shared. [app_handler]
   and [on_view_change] are harness wiring, not protocol state, and are left
   alone. *)

type checkpoint = {
  cp_view : View.t;
  cp_ver : int;
  cp_seq : Types.seq;
  cp_next : Types.expectation list;
  cp_faulty : Pid.Set.t;
  cp_recovered : Pid.Set.t;
  cp_operating : Pid.Set.t;
  cp_mgr : Pid.t;
  cp_mgr_phase : mgr_phase option;
  cp_reconf : reconf_phase option;
  cp_has_quit : bool;
  cp_joined : bool;
  cp_detector : Heartbeat.checkpoint option;
  cp_peer_cache : Pid.t list option;
  cp_app_buffer : (Pid.t * int * Wire.app) list;
  cp_stash : (Pid.t * Wire.interrogate_reply) list;
  cp_initiation_deferred : bool;
}

let copy_mgr_phase = function
  | None -> None
  | Some mp -> Some { mp with mp_oks = mp.mp_oks }

let copy_reconf = function
  | None -> None
  | Some (R_interrogating r) ->
    Some (R_interrogating { responses = r.responses })
  | Some (R_proposing r) ->
    Some (R_proposing { r_prop = r.r_prop; r_oks = r.r_oks })

let checkpoint t =
  { cp_view = t.view;
    cp_ver = t.ver;
    cp_seq = t.seq;
    cp_next = t.next;
    cp_faulty = t.faulty;
    cp_recovered = t.recovered;
    cp_operating = t.operating;
    cp_mgr = t.mgr;
    cp_mgr_phase = copy_mgr_phase t.mgr_phase;
    cp_reconf = copy_reconf t.reconf;
    cp_has_quit = t.has_quit;
    cp_joined = t.joined;
    cp_detector = Option.map Heartbeat.checkpoint t.detector;
    cp_peer_cache = t.peer_cache;
    cp_app_buffer = t.app_buffer;
    cp_stash = t.stash;
    cp_initiation_deferred = t.initiation_deferred }

let restore t cp =
  t.view <- cp.cp_view;
  t.ver <- cp.cp_ver;
  t.seq <- cp.cp_seq;
  t.next <- cp.cp_next;
  t.faulty <- cp.cp_faulty;
  t.recovered <- cp.cp_recovered;
  t.operating <- cp.cp_operating;
  t.mgr <- cp.cp_mgr;
  t.mgr_phase <- copy_mgr_phase cp.cp_mgr_phase;
  t.reconf <- copy_reconf cp.cp_reconf;
  t.has_quit <- cp.cp_has_quit;
  t.joined <- cp.cp_joined;
  (match (t.detector, cp.cp_detector) with
  | Some d, Some c -> Heartbeat.restore d c
  | _ -> ());
  t.peer_cache <- cp.cp_peer_cache;
  t.app_buffer <- cp.cp_app_buffer;
  t.stash <- cp.cp_stash;
  t.initiation_deferred <- cp.cp_initiation_deferred

(* ---- fingerprint: protocol-state hash for the schedule explorer ---- *)

(* Order-sensitive FNV-style mix; every collection is folded in a canonical
   order (sets and views are sorted by construction, lists in list order),
   so equal states hash equally across executions. *)
let fp_mix h x = (h * 0x01000193) lxor (x land max_int)
let fp_pid h p = fp_mix (fp_mix h (Pid.id p)) (Pid.incarnation p)
let fp_bool h b = fp_mix h (if b then 1 else 0)
let fp_set h s = Pid.Set.fold (fun p h -> fp_pid h p) s h

let fp_op h = function
  | Types.Remove p -> fp_pid (fp_mix h 1) p
  | Types.Add p -> fp_pid (fp_mix h 2) p

let fp_seq h seq = List.fold_left fp_op (fp_mix h (List.length seq)) seq

let fp_expect h = function
  | Types.Awaiting_proposal p -> fp_pid (fp_mix h 3) p
  | Types.Expected { canonical; coord; ver } ->
    fp_pid (fp_mix (fp_seq (fp_mix h 4) canonical) ver) coord

let fp_reply h (reply : Wire.interrogate_reply) =
  let h = fp_mix h reply.reply_ver in
  let h = fp_seq h reply.reply_seq in
  List.fold_left fp_expect h reply.reply_next

let fingerprint t =
  let h = fp_pid 0x811c9dc5 (self t) in
  let h = fp_mix h t.ver in
  let h = fp_seq h t.seq in
  let h = List.fold_left fp_pid (fp_mix h 5) (View.members t.view) in
  let h = List.fold_left fp_expect (fp_mix h 6) t.next in
  let h = fp_set (fp_mix h 7) t.faulty in
  let h = fp_set (fp_mix h 8) t.recovered in
  let h = fp_set (fp_mix h 9) t.operating in
  let h = fp_pid (fp_mix h 10) t.mgr in
  let h =
    match t.mgr_phase with
    | None -> fp_mix h 0
    | Some mp ->
      fp_bool
        (fp_set
           (fp_mix (fp_op (fp_mix h 11) mp.mp_op) mp.mp_target_ver)
           mp.mp_oks)
        mp.mp_compressed
  in
  let h =
    match t.reconf with
    | None -> fp_mix h 0
    | Some (R_interrogating r) ->
      List.fold_left
        (fun h (p, reply) -> fp_reply (fp_pid h p) reply)
        (fp_mix h 12) r.responses
    | Some (R_proposing r) ->
      let prop = r.r_prop in
      let h = fp_mix (fp_mix h 13) prop.Wire.target_ver in
      let h = fp_seq h prop.Wire.canonical_seq in
      let h =
        match prop.Wire.invis with None -> fp_mix h 0 | Some op -> fp_op h op
      in
      let h = List.fold_left fp_pid h prop.Wire.prop_faulty in
      fp_set h r.r_oks
  in
  let h = fp_bool (fp_bool (fp_bool h t.has_quit) t.joined) (crashed t) in
  let h = fp_bool h t.initiation_deferred in
  let h =
    List.fold_left
      (fun h (p, ver, _) -> fp_mix (fp_pid h p) ver)
      (fp_mix h (List.length t.app_buffer))
      t.app_buffer
  in
  List.fold_left
    (fun h (p, reply) -> fp_reply (fp_pid h p) reply)
    (fp_mix h (List.length t.stash))
    t.stash

let pp ppf t =
  Fmt.pf ppf "%a v%d %a mgr=%a%s%s" Pid.pp (self t) t.ver View.pp t.view Pid.pp
    t.mgr
    (if t.has_quit then " QUIT" else "")
    (if crashed t && not t.has_quit then " CRASHED" else "")
