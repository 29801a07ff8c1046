(* Vector clocks over dynamic process sets, stored as dense int arrays over a
   pid-interning registry. Slot [i] of a clock holds the count for the [i]-th
   pid interned in this domain; slots beyond an array's length are implicitly
   zero, so clocks over different membership generations compare soundly and
   [empty] is the zero-length array.

   The registry is *domain-local* (one independent registry per OCaml 5
   domain, via [Domain.DLS]): interning is lock-free on the hot path and
   parallel workers — the explorer's domains, the bench's scenario pool —
   cannot race on it. The registry only grows within a domain, and intern
   order never affects observable behaviour: [to_list]/[pp]/[compare_total]
   sort by [Pid.compare], and the comparison operators treat missing trailing
   slots as zero. The corollary is a sharp ownership rule: a clock value is
   meaningful only in the domain whose registry interned its slots. Clocks
   must not cross domains raw; cross-domain consumers exchange
   [to_list]-style views (the codecs already do).

   Two APIs share the representation:

   - the immutable [t] operations, unchanged from the original map-based
     semantics — every op allocates a fresh array;
   - [Mutable], a copy-on-write owner for the per-process clock hot path:
     [tick]/[merge_tick] update in place while the owner holds the only
     reference, and [snapshot] publishes the current array (freezing it) so
     the next update copies. A process that receives many messages between
     sends — the heartbeat steady state — pays O(1) amortized allocation per
     delivery instead of O(group size). *)

open Gmp_base

type t = int array

(* ---- pid <-> slot interning (per-domain) ---- *)

let registry_key : Pid.Slots.t Domain.DLS.key =
  Domain.DLS.new_key Pid.Slots.create

let registry () = Domain.DLS.get registry_key

let fresh_registry () = Domain.DLS.set registry_key (Pid.Slots.create ())

let intern pid = Pid.Slots.intern (registry ()) pid

let reserve pids = List.iter (fun p -> ignore (intern p : int)) pids

(* Slot of [pid] if already interned, otherwise -1 (read-only paths must not
   grow the registry: a clock can't have a nonzero count for a pid no clock
   has ever ticked). *)
let slot_of pid = Pid.Slots.find (registry ()) pid

let empty = [||]

let get t pid =
  let i = slot_of pid in
  if i >= 0 && i < Array.length t then t.(i) else 0

let tick t pid =
  let i = intern pid in
  let len = Array.length t in
  let out = Array.make (if i < len then len else i + 1) 0 in
  Array.blit t 0 out 0 len;
  out.(i) <- out.(i) + 1;
  out

let merge a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let short, long = if la <= lb then (a, b) else (b, a) in
    let out = Array.copy long in
    for i = 0 to Array.length short - 1 do
      if short.(i) > out.(i) then out.(i) <- short.(i)
    done;
    out
  end

let merge_tick a b pid =
  (* [tick (merge a b) pid] in a single allocation: the receive rule. *)
  let i = intern pid in
  let la = Array.length a and lb = Array.length b in
  let len =
    let m = if la >= lb then la else lb in
    if i < m then m else i + 1
  in
  let out = Array.make len 0 in
  Array.blit a 0 out 0 la;
  for j = 0 to lb - 1 do
    if b.(j) > out.(j) then out.(j) <- b.(j)
  done;
  out.(i) <- out.(i) + 1;
  out

let leq a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la then true
    else if a.(i) <= (if i < lb then b.(i) else 0) then go (i + 1)
    else false
  in
  go 0

let equal a b =
  let la = Array.length a and lb = Array.length b in
  let lo = if la <= lb then la else lb in
  let rec same i =
    if i >= lo then true else a.(i) = b.(i) && same (i + 1)
  in
  let rec zeros (t : t) i len =
    if i >= len then true else t.(i) = 0 && zeros t (i + 1) len
  in
  same 0 && zeros a lo la && zeros b lo lb

let lt a b = leq a b && not (leq b a)
let concurrent a b = (not (leq a b)) && not (leq b a)

let to_list t =
  let reg = registry () in
  let acc = ref [] in
  for i = Array.length t - 1 downto 0 do
    if t.(i) <> 0 then acc := (Pid.Slots.get reg i, t.(i)) :: !acc
  done;
  List.sort (fun (p, _) (q, _) -> Pid.compare p q) !acc

let compare_total a b =
  (* Arbitrary total order extending nothing in particular; for use as map
     keys only. Lexicographic over pid-sorted nonzero bindings, matching the
     old [Pid.Map.compare] (maps never held zero entries). *)
  List.compare
    (fun (p, m) (q, n) ->
      let c = Pid.compare p q in
      if c <> 0 then c else Int.compare m n)
    (to_list a) (to_list b)

let of_list entries =
  List.fold_left
    (fun acc (pid, n) ->
      if n < 0 then invalid_arg "Vector_clock.of_list: negative entry"
      else if n = 0 then acc
      else begin
        let i = intern pid in
        let len = Array.length acc in
        let out = Array.make (if i < len then len else i + 1) 0 in
        Array.blit acc 0 out 0 len;
        out.(i) <- n;
        out
      end)
    empty entries

let pp ppf t =
  let entry ppf (pid, n) = Fmt.pf ppf "%a:%d" Pid.pp pid n in
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any " ") entry) (to_list t)

(* ---- copy-on-write owner clocks ---- *)

module Mutable = struct
  type clock = { mutable arr : int array; mutable shared : bool }

  let create () = { arr = empty; shared = true }

  (* Make [c.arr] privately owned and at least [needed] slots long. Sizing
     matches the immutable ops exactly (grow to the precise need, never
     over-allocate), so a snapshot after any op sequence is bit-identical to
     the array the immutable API would have produced. *)
  let unshare c needed =
    let len = Array.length c.arr in
    if c.shared || needed > len then begin
      let out = Array.make (if needed > len then needed else len) 0 in
      Array.blit c.arr 0 out 0 len;
      c.arr <- out;
      c.shared <- false
    end

  let tick c pid =
    let i = intern pid in
    unshare c (i + 1);
    c.arr.(i) <- c.arr.(i) + 1

  let merge_tick c b pid =
    let i = intern pid in
    let lb = Array.length b in
    unshare c (if i + 1 > lb then i + 1 else lb);
    let a = c.arr in
    (* [unshare] made [a] at least [lb] long, so no index needs a check. *)
    for j = 0 to lb - 1 do
      let bj = Array.unsafe_get b j in
      if bj > Array.unsafe_get a j then Array.unsafe_set a j bj
    done;
    a.(i) <- a.(i) + 1

  let snapshot c =
    c.shared <- true;
    c.arr

  (* Checkpointing IS publishing: the captured array is frozen by the
     copy-on-write discipline (every writer unshares first), so both capture
     and restore are O(1) and the same checkpoint restores any number of
     times. *)
  type checkpoint = t

  let checkpoint c = snapshot c

  let restore c arr =
    c.arr <- arr;
    c.shared <- true
end
