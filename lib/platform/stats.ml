(* Per-category message accounting. The paper's complexity analysis counts
   protocol messages and ignores the detection mechanism, so categories let
   benches exclude heartbeats from the tallies.

   Categories are interned once into small dense ids in a global registry;
   the per-message [record_*] path is then a single array increment — no
   string hashing, no allocation. Strings reappear only in the query/report
   API, which resolves them through the registry. *)

type category = int

(* ---- global category registry ----

   The registry is process-wide and normally written only at module
   initialization time (Wire precomputes one id per message type). Parallel
   harnesses [freeze] it before spawning domains: a frozen registry is
   immutable, so the lock-free lookups below are safe to run concurrently;
   interning a *new* name while frozen is a domain-safety bug and raises.
   Mutation is mutex-guarded regardless, so a stray late intern from a
   single domain stays well-defined. *)

let cat_index : (string, int) Hashtbl.t = Hashtbl.create 16
let cat_names = ref (Array.make 16 "")
let cat_count = ref 0
let cat_frozen = Atomic.make false
let cat_mutex = Mutex.create ()

let freeze () = Atomic.set cat_frozen true
let thaw () = Atomic.set cat_frozen false

let intern name =
  match Hashtbl.find_opt cat_index name with
  | Some id -> id
  | None ->
    if Atomic.get cat_frozen then
      invalid_arg
        (Printf.sprintf
           "Stats.intern: registry is frozen (parallel section) and %S is \
            not interned"
           name);
    Mutex.protect cat_mutex (fun () ->
        match Hashtbl.find_opt cat_index name with
        | Some id -> id
        | None ->
          let id = !cat_count in
          if id = Array.length !cat_names then begin
            let bigger = Array.make (2 * id) "" in
            Array.blit !cat_names 0 bigger 0 id;
            cat_names := bigger
          end;
          !cat_names.(id) <- name;
          Hashtbl.add cat_index name id;
          incr cat_count;
          id)

let name (id : category) =
  if id < 0 || id >= !cat_count then
    invalid_arg "Stats.name: unknown category id";
  !cat_names.(id)

(* ---- counters: one int slot per interned category ---- *)

type t = {
  mutable sent : int array;
  mutable delivered : int array;
  mutable dropped : int array; (* dst crashed, disconnected (S1), … *)
}

let create () = { sent = [||]; delivered = [||]; dropped = [||] }

let grown arr id =
  let cap = max 16 (max (2 * Array.length arr) (id + 1)) in
  let bigger = Array.make cap 0 in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let record_sent t ~category:id =
  if id >= Array.length t.sent then t.sent <- grown t.sent id;
  t.sent.(id) <- t.sent.(id) + 1

let record_delivered t ~category:id =
  if id >= Array.length t.delivered then t.delivered <- grown t.delivered id;
  t.delivered.(id) <- t.delivered.(id) + 1

let record_dropped t ~category:id =
  if id >= Array.length t.dropped then t.dropped <- grown t.dropped id;
  t.dropped.(id) <- t.dropped.(id) + 1

let get arr category =
  match Hashtbl.find_opt cat_index category with
  | None -> 0
  | Some id -> if id < Array.length arr then arr.(id) else 0

let sent t ~category = get t.sent category
let delivered t ~category = get t.delivered category
let dropped t ~category = get t.dropped category

let sum arr = Array.fold_left ( + ) 0 arr

let total_sent t = sum t.sent
let total_delivered t = sum t.delivered
let total_dropped t = sum t.dropped

let categories t =
  (* Categories with any nonzero counter, name-sorted (a recorded category
     is never zero, so this matches "ever recorded since the last reset"). *)
  let acc = ref [] in
  let scan arr =
    Array.iteri
      (fun id n ->
        if n > 0 then begin
          let nm = !cat_names.(id) in
          if not (List.mem nm !acc) then acc := nm :: !acc
        end)
      arr
  in
  scan t.sent;
  scan t.delivered;
  scan t.dropped;
  List.sort String.compare !acc

let sent_excluding t ~categories:excluded =
  let acc = ref 0 in
  Array.iteri
    (fun id n ->
      if n > 0 && not (List.mem !cat_names.(id) excluded) then acc := !acc + n)
    t.sent;
  !acc

let reset t =
  Array.fill t.sent 0 (Array.length t.sent) 0;
  Array.fill t.delivered 0 (Array.length t.delivered) 0;
  Array.fill t.dropped 0 (Array.length t.dropped) 0

(* Counter checkpoints copy the three arrays both ways: copying again on
   restore keeps the checkpoint pristine under later increments, so one
   checkpoint supports any number of restores. The category registry is
   process-global configuration, not per-run state, and is not captured. *)

type checkpoint = {
  cp_sent : int array;
  cp_delivered : int array;
  cp_dropped : int array;
}

let checkpoint t =
  { cp_sent = Array.copy t.sent;
    cp_delivered = Array.copy t.delivered;
    cp_dropped = Array.copy t.dropped }

let restore t cp =
  t.sent <- Array.copy cp.cp_sent;
  t.delivered <- Array.copy cp.cp_delivered;
  t.dropped <- Array.copy cp.cp_dropped

let snapshot t =
  List.map
    (fun category ->
      (category, sent t ~category, delivered t ~category, dropped t ~category))
    (categories t)

let register_views t reg =
  (* One flat view over the whole table: keys only exist once a category
     records something, so the family's key set is runtime data — exactly
     what Obs list-valued views are for. *)
  Gmp_obs.Obs.register_views reg ~prefix:"msg" (fun () ->
      List.concat_map
        (fun (category, s, d, x) ->
          [ (category ^ ".sent", s);
            (category ^ ".delivered", d);
            (category ^ ".dropped", x) ])
        (snapshot t))

let pp ppf t =
  let row ppf (category, s, d, x) =
    Fmt.pf ppf "%-18s sent=%-6d delivered=%-6d dropped=%d" category s d x
  in
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@\n") row) (snapshot t)
