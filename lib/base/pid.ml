(* Process identifiers. The paper treats a recovered process as "a new and
   different process instance"; the incarnation number realizes that: p3#0 and
   p3#1 are different processes sharing a host name. *)

module T = struct
  type t = { id : int; incarnation : int }

  let compare a b =
    match Int.compare a.id b.id with
    | 0 -> Int.compare a.incarnation b.incarnation
    | c -> c
end

include T

let make ?(incarnation = 0) id =
  if id < 0 then invalid_arg "Pid.make: negative id";
  if incarnation < 0 then invalid_arg "Pid.make: negative incarnation";
  { id; incarnation }

let id t = t.id
let incarnation t = t.incarnation

let reincarnate t = { t with incarnation = t.incarnation + 1 }

let equal a b = compare a b = 0

let to_string t =
  if t.incarnation = 0 then Printf.sprintf "p%d" t.id
  else Printf.sprintf "p%d#%d" t.id t.incarnation

(* Inverse of [to_string]; the live trace reader round-trips pids through
   their printed form. *)
let of_string s =
  let parse_nat x =
    match int_of_string_opt x with Some n when n >= 0 -> Some n | _ -> None
  in
  if String.length s < 2 || s.[0] <> 'p' then None
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match String.index_opt rest '#' with
    | None -> Option.map (fun id -> { id; incarnation = 0 }) (parse_nat rest)
    | Some i -> (
      let id = String.sub rest 0 i in
      let inc = String.sub rest (i + 1) (String.length rest - i - 1) in
      match (parse_nat id, parse_nat inc) with
      | Some id, Some incarnation -> Some { id; incarnation }
      | _ -> None)

let pp ppf t = Fmt.string ppf (to_string t)

module Set = struct
  include Set.Make (T)

  let pp ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") pp) (elements s)
end

module Map = Map.Make (T)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash t = (t.id * 65599) + t.incarnation
end)

(* Dense interning: the first pid interned gets slot 0, the next 1, and so
   on. [by_id] is a lookup tried before hashing: pid id -> the slot last
   interned or found for that id, confirmed against [pids] because
   incarnations share an id. It covers ids below twice [pids]'s capacity,
   so a few sparse ids (joiners named p1001, ...) hash instead of sizing
   it. *)
module Slots = struct
  type pid = t

  type nonrec t = {
    index : int Tbl.t;
    mutable pids : pid array;
    mutable len : int;
    mutable by_id : int array;
  }

  let create () =
    { index = Tbl.create 64;
      pids = Array.make 64 { id = 0; incarnation = 0 };
      len = 0;
      by_id = Array.make 64 (-1) }

  let remember t pid slot =
    if pid.id < 2 * Array.length t.pids then begin
      let n = Array.length t.by_id in
      if pid.id >= n then begin
        let by_id = Array.make (2 * Array.length t.pids) (-1) in
        Array.blit t.by_id 0 by_id 0 n;
        t.by_id <- by_id
      end;
      t.by_id.(pid.id) <- slot
    end

  let find t pid =
    let s = if pid.id < Array.length t.by_id then t.by_id.(pid.id) else -1 in
    if
      s >= 0 && s < t.len
      && t.pids.(s).incarnation = pid.incarnation
      && t.pids.(s).id = pid.id
    then s
    else
      match Tbl.find t.index pid with
      | s ->
        remember t pid s;
        s
      | exception Not_found -> -1

  let intern t pid =
    let s = find t pid in
    if s >= 0 then s
    else begin
      let s = t.len in
      if s = Array.length t.pids then begin
        let pids = Array.make (2 * s) pid in
        Array.blit t.pids 0 pids 0 s;
        t.pids <- pids
      end;
      t.pids.(s) <- pid;
      Tbl.add t.index pid s;
      remember t pid s;
      t.len <- s + 1;
      s
    end

  let length t = t.len

  let get t s =
    if s < 0 || s >= t.len then invalid_arg "Pid.Slots.get: not interned";
    t.pids.(s)

  let truncate t n =
    for s = n to t.len - 1 do
      let pid = t.pids.(s) in
      Tbl.remove t.index pid;
      if pid.id < Array.length t.by_id && t.by_id.(pid.id) = s then
        t.by_id.(pid.id) <- -1
    done;
    if n < t.len then t.len <- n
end

let group ?(incarnation = 0) n =
  if n < 0 then invalid_arg "Pid.group: negative size";
  List.init n (fun i -> make ~incarnation i)
