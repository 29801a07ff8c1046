(* Run traces. Every protocol-relevant step of every process is recorded
   with its owner, local history index and vector clock, so the Checker can
   decide the GMP properties and the Epistemic module can reason about
   consistent cuts.

   Storage is a growable array plus per-owner and per-kind indexes maintained
   incrementally at [record] time: recording is O(1) amortized and every
   query pays O(result), not O(trace). The test suite keeps the seed's
   list-scan implementations as the oracle the indexes are fuzzed against. *)

open Gmp_base
open Gmp_causality

type kind =
  | Faulty of Pid.t (* owner executed faulty(target) *)
  | Operating of Pid.t (* owner learnt target is joining *)
  | Removed of { target : Pid.t; new_ver : int }
  | Added of { target : Pid.t; new_ver : int }
  | Installed of { ver : int; view_members : Pid.t list }
  | Quit of string (* protocol-mandated quit, with reason *)
  | Crashed (* injected real crash *)
  | Initiated_reconf of { at_ver : int }
  | Proposed of { target_ver : int; ops : Types.op list }
  | Committed of { ver : int; commit_kind : [ `Update | `Reconf ] }
  | Became_mgr of { at_ver : int }
  | Violation of string (* internal invariant broken; checkers flag these *)

type event = {
  owner : Pid.t;
  index : int; (* owner's local history position *)
  time : float;
  vc : Vector_clock.t;
  kind : kind;
}

(* Growable vector of event positions (indexes into the event array). *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let cap = if v.n = 0 then 8 else v.n * 2 in
      let fresh = Array.make cap 0 in
      Array.blit v.a 0 fresh 0 v.n;
      v.a <- fresh
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  (* [to_list v f] = [List.map f (contents v)], built back-to-front. *)
  let to_list v f =
    let rec go i acc = if i < 0 then acc else go (i - 1) (f v.a.(i) :: acc) in
    go (v.n - 1) []

  let filter_list v f =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (match f v.a.(i) with Some x -> x :: acc | None -> acc)
    in
    go (v.n - 1) []
end

type t = {
  mutable evs : event array; (* evs.(0 .. len-1); beyond is filler *)
  mutable len : int;
  owner_ix : Ivec.t Pid.Tbl.t; (* owner -> its events, in order *)
  install_ix : Ivec.t; (* Installed events, in order *)
  owner_install_ix : Ivec.t Pid.Tbl.t; (* owner -> its Installed events *)
  detection_ix : Ivec.t; (* Faulty events *)
  quit_ix : Ivec.t; (* Quit and Crashed events *)
  violation_ix : Ivec.t; (* Violation events *)
  mutable owners_rev : Pid.t list; (* first-appearance order, reversed *)
  mutable on_record : (event -> unit) option;
      (* observer called on every recorded event; lets a live node flush
         each event to disk the moment it happens, so the log survives a
         SIGKILL mid-run *)
}

let create () =
  { evs = [||];
    len = 0;
    owner_ix = Pid.Tbl.create 16;
    install_ix = Ivec.create ();
    owner_install_ix = Pid.Tbl.create 16;
    detection_ix = Ivec.create ();
    quit_ix = Ivec.create ();
    violation_ix = Ivec.create ();
    owners_rev = [];
    on_record = None }

let set_on_record t f = t.on_record <- Some f

let push_owner_table table owner i =
  match Pid.Tbl.find_opt table owner with
  | Some v -> Ivec.push v i
  | None ->
    let v = Ivec.create () in
    Ivec.push v i;
    Pid.Tbl.add table owner v

let record t ~owner ~index ~time ~vc kind =
  let e = { owner; index; time; vc; kind } in
  if t.len = Array.length t.evs then begin
    let cap = if t.len = 0 then 64 else t.len * 2 in
    (* The new event is the filler: fresh slots hold no stale data. *)
    let fresh = Array.make cap e in
    Array.blit t.evs 0 fresh 0 t.len;
    t.evs <- fresh
  end;
  let i = t.len in
  t.evs.(i) <- e;
  t.len <- i + 1;
  if not (Pid.Tbl.mem t.owner_ix owner) then
    t.owners_rev <- owner :: t.owners_rev;
  push_owner_table t.owner_ix owner i;
  (match kind with
  | Installed _ ->
    Ivec.push t.install_ix i;
    push_owner_table t.owner_install_ix owner i
  | Faulty _ -> Ivec.push t.detection_ix i
  | Quit _ | Crashed -> Ivec.push t.quit_ix i
  | Violation _ -> Ivec.push t.violation_ix i
  | Operating _ | Removed _ | Added _ | Initiated_reconf _ | Proposed _
  | Committed _ | Became_mgr _ ->
    ());
  match t.on_record with None -> () | Some f -> f e

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: out of bounds";
  t.evs.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.evs.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.evs.(i)
  done;
  !acc

let events t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.evs.(i) :: acc) in
  go (t.len - 1) []

(* ---- Indexed queries used by the checkers ---- *)

let by_owner t pid =
  match Pid.Tbl.find_opt t.owner_ix pid with
  | None -> []
  | Some v -> Ivec.to_list v (fun i -> t.evs.(i))

let install_triple t i =
  let e = t.evs.(i) in
  match e.kind with
  | Installed { ver; view_members } -> (e, ver, view_members)
  | _ -> assert false (* install_ix holds only Installed events *)

let installs t = Ivec.to_list t.install_ix (install_triple t)

let installs_of t pid =
  match Pid.Tbl.find_opt t.owner_install_ix pid with
  | None -> []
  | Some v ->
    Ivec.to_list v (fun i ->
        let _, ver, members = install_triple t i in
        (ver, members))

let detections t =
  Ivec.to_list t.detection_ix (fun i ->
      let e = t.evs.(i) in
      match e.kind with Faulty q -> (e.owner, q, e) | _ -> assert false)

let quits t =
  Ivec.to_list t.quit_ix (fun i ->
      let e = t.evs.(i) in
      match e.kind with
      | Quit reason -> (e.owner, `Quit reason)
      | Crashed -> (e.owner, `Crashed)
      | _ -> assert false)

let violations t =
  Ivec.filter_list t.violation_ix (fun i ->
      let e = t.evs.(i) in
      match e.kind with Violation v -> Some (e.owner, v) | _ -> None)

let owners t = List.rev t.owners_rev

(* ---- checkpoint / restore: truncate-to-mark ----

   A trace only ever appends, so a checkpoint is a set of lengths: the event
   count plus each index vector's cursor. Restore truncates by resetting the
   cursors in place — the backing arrays keep their (now stale, unreachable
   via any query) tails, which the next appends overwrite, so re-recording
   the same events after a restore reproduces the identical observable trace
   with no per-event cost. Owners first seen after the capture are dropped
   from the owner tables so their (empty-again) index vectors do not leak
   phantom owners into [owners]/[by_owner]. *)

type checkpoint = {
  cp_len : int;
  cp_install_n : int;
  cp_detection_n : int;
  cp_quit_n : int;
  cp_violation_n : int;
  cp_owner_marks : (Pid.t * Ivec.t * int) list;
  cp_owner_install_marks : (Pid.t * Ivec.t * int) list;
  cp_owners_rev : Pid.t list;
}

let table_marks table =
  Pid.Tbl.fold (fun pid v acc -> (pid, v, v.Ivec.n) :: acc) table []

let checkpoint t =
  { cp_len = t.len;
    cp_install_n = t.install_ix.Ivec.n;
    cp_detection_n = t.detection_ix.Ivec.n;
    cp_quit_n = t.quit_ix.Ivec.n;
    cp_violation_n = t.violation_ix.Ivec.n;
    cp_owner_marks = table_marks t.owner_ix;
    cp_owner_install_marks = table_marks t.owner_install_ix;
    cp_owners_rev = t.owners_rev }

let restore_table table marks =
  (* Drop owners added after the capture, rewind the cursors of the rest.
     Owner sets are small (group size), so the membership scan is cheap. *)
  let stale =
    Pid.Tbl.fold
      (fun pid _ acc ->
        if List.exists (fun (p, _, _) -> Pid.equal p pid) marks then acc
        else pid :: acc)
      table []
  in
  List.iter (Pid.Tbl.remove table) stale;
  List.iter (fun (_, v, n) -> v.Ivec.n <- n) marks

let restore t cp =
  t.len <- cp.cp_len;
  t.install_ix.Ivec.n <- cp.cp_install_n;
  t.detection_ix.Ivec.n <- cp.cp_detection_n;
  t.quit_ix.Ivec.n <- cp.cp_quit_n;
  t.violation_ix.Ivec.n <- cp.cp_violation_n;
  restore_table t.owner_ix cp.cp_owner_marks;
  restore_table t.owner_install_ix cp.cp_owner_install_marks;
  t.owners_rev <- cp.cp_owners_rev

let pp_kind ppf = function
  | Faulty q -> Fmt.pf ppf "faulty(%a)" Pid.pp q
  | Operating q -> Fmt.pf ppf "operating(%a)" Pid.pp q
  | Removed { target; new_ver } ->
    Fmt.pf ppf "removed(%a)->v%d" Pid.pp target new_ver
  | Added { target; new_ver } -> Fmt.pf ppf "added(%a)->v%d" Pid.pp target new_ver
  | Installed { ver; view_members } ->
    Fmt.pf ppf "installed v%d {%a}" ver
      Fmt.(list ~sep:(any ",") Pid.pp)
      view_members
  | Quit reason -> Fmt.pf ppf "quit(%s)" reason
  | Crashed -> Fmt.string ppf "crashed"
  | Initiated_reconf { at_ver } -> Fmt.pf ppf "initiated-reconf@v%d" at_ver
  | Proposed { target_ver; ops } ->
    Fmt.pf ppf "proposed v%d %a" target_ver
      Fmt.(list ~sep:(any ",") Types.pp_op)
      ops
  | Committed { ver; commit_kind } ->
    Fmt.pf ppf "committed v%d (%s)" ver
      (match commit_kind with `Update -> "update" | `Reconf -> "reconf")
  | Became_mgr { at_ver } -> Fmt.pf ppf "became-mgr@v%d" at_ver
  | Violation v -> Fmt.pf ppf "VIOLATION: %s" v

let pp_event ppf e =
  Fmt.pf ppf "%8.3f %-6s %a" e.time (Pid.to_string e.owner) pp_kind e.kind

let pp ppf t = Fmt.(list ~sep:(any "@\n") pp_event) ppf (events t)

(* ---- ASCII space-time diagram ---- *)

let cell_of_kind = function
  | Faulty q -> Some (Fmt.str "!%s" (Pid.to_string q))
  | Operating _ -> None
  | Removed { target; _ } -> Some (Fmt.str "-%s" (Pid.to_string target))
  | Added { target; _ } -> Some (Fmt.str "+%s" (Pid.to_string target))
  | Installed { ver; _ } -> Some (Fmt.str "V%d" ver)
  | Quit _ -> Some "QUIT"
  | Crashed -> Some "CRASH"
  | Initiated_reconf _ -> Some "RECONF"
  | Proposed { target_ver; _ } -> Some (Fmt.str "prop%d" target_ver)
  | Committed { ver; _ } -> Some (Fmt.str "!%d" ver)
  | Became_mgr _ -> Some "MGR"
  | Violation _ -> Some "VIOL!"

(* One row per protocol-milestone event, one column per process: a compact
   space-time diagram of the run (the textual analogue of the paper's
   figures). *)
let pp_timeline ppf t =
  let owners = owners t in
  let width = 9 in
  let pad s =
    let len = String.length s in
    if len >= width then String.sub s 0 width
    else s ^ String.make (width - len) ' '
  in
  Fmt.pf ppf "%s" (pad "time");
  List.iter (fun p -> Fmt.pf ppf "%s" (pad (Pid.to_string p))) owners;
  Fmt.pf ppf "@\n";
  iter t (fun e ->
      match cell_of_kind e.kind with
      | None -> ()
      | Some cell ->
        Fmt.pf ppf "%s" (pad (Fmt.str "%.2f" e.time));
        List.iter
          (fun p ->
            if Pid.equal p e.owner then Fmt.pf ppf "%s" (pad cell)
            else Fmt.pf ppf "%s" (pad "."))
          owners;
        Fmt.pf ppf "@\n")
