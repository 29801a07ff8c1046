(* Per-category message accounting. The paper's complexity analysis counts
   protocol messages and ignores the detection mechanism, so categories let
   benches exclude heartbeats from the tallies.

   The tallies themselves are counters in an Obs registry. Categories are
   interned once into small dense ids in a global registry, and each table
   keeps its counters in a dense array by id, so the per-message [record_*]
   path is one array index plus one increment — no string hashing, no
   allocation. Strings reappear only in the query/report API, which
   resolves them through the category registry. *)

module Obs = Gmp_obs.Obs

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

(* ---- tallies: three Obs counters per interned category ----

   Slot [3 * id + k] holds category [id]'s sent (k = 0), delivered (1) or
   dropped (2) counter, named [msg.<category>.sent] / [.delivered] /
   [.dropped]. A category's three counters are created together at its
   first record, so the registry lists exactly the categories that have
   recorded something. Until then its slots hold [absent], a counter that
   belongs to no registry and is never incremented. *)

type t = { registry : Obs.registry; mutable cells : Obs.counter array }

let absent = Obs.counter (Obs.create ()) "absent"

let create registry = { registry; cells = [||] }
let registry t = t.registry

(* Create [id]'s three counters and return the one in slot [k]. *)
let add t id k =
  let need = 3 * (id + 1) in
  if need > Array.length t.cells then begin
    let cap = max 48 (max (2 * Array.length t.cells) need) in
    let bigger = Array.make cap absent in
    Array.blit t.cells 0 bigger 0 (Array.length t.cells);
    t.cells <- bigger
  end;
  let prefix = "msg." ^ name id ^ "." in
  List.iteri
    (fun j suffix ->
      t.cells.((3 * id) + j) <- Obs.counter t.registry (prefix ^ suffix))
    [ "sent"; "delivered"; "dropped" ];
  t.cells.((3 * id) + k)

let record t id k =
  let i = (3 * id) + k in
  let c = if i < Array.length t.cells then t.cells.(i) else absent in
  Obs.inc (if c == absent then add t id k else c)

let record_sent t ~category = record t category 0
let record_delivered t ~category = record t category 1
let record_dropped t ~category = record t category 2

let value t id k =
  let i = (3 * id) + k in
  if i < Array.length t.cells then Obs.counter_value t.cells.(i) else 0

let get t category k =
  match Hashtbl.find_opt cat_index category with
  | None -> 0
  | Some id -> value t id k

let sent t ~category = get t category 0
let delivered t ~category = get t category 1
let dropped t ~category = get t category 2

(* The ids whose counters exist. *)
let ids t =
  List.filter
    (fun id -> t.cells.(3 * id) != absent)
    (List.init (Array.length t.cells / 3) Fun.id)

let sum t k = List.fold_left (fun acc id -> acc + value t id k) 0 (ids t)

let total_sent t = sum t 0
let total_delivered t = sum t 1
let total_dropped t = sum t 2

let categories t =
  (* Categories with any nonzero counter, name-sorted. *)
  List.filter
    (fun id -> value t id 0 > 0 || value t id 1 > 0 || value t id 2 > 0)
    (ids t)
  |> List.map name
  |> List.sort String.compare

let sent_excluding t ~categories:excluded =
  List.fold_left
    (fun acc id ->
      if List.mem (name id) excluded then acc else acc + value t id 0)
    0 (ids t)

(* A checkpoint is the counter values in slot order, absent slots as 0.
   Restore writes every created counter back, and a counter created after
   the capture (a slot past the copy, or absent in it) back to 0, so one
   checkpoint supports any number of restores. The category registry is
   process-global configuration, not per-run state, and is not captured. *)

type checkpoint = int array

let checkpoint t = Array.map Obs.counter_value t.cells

let restore t cp =
  for i = 0 to Array.length t.cells - 1 do
    let c = t.cells.(i) in
    if c != absent then begin
      let v = if i < Array.length cp then cp.(i) else 0 in
      Obs.inc ~by:(v - Obs.counter_value c) c
    end
  done

let snapshot t =
  List.map
    (fun category ->
      (category, sent t ~category, delivered t ~category, dropped t ~category))
    (categories t)

let pp ppf t =
  let row ppf (category, s, d, x) =
    Fmt.pf ppf "%-18s sent=%-6d delivered=%-6d dropped=%d" category s d x
  in
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@\n") row) (snapshot t)
