(* The metrics registry both worlds share.

   Cells are mutable and cheap to hit (hot paths see an int increment or a
   binary search over a dozen fixed edges); snapshots are immutable sorted
   assoc lists, which makes determinism (sort by name, serialize floats
   through Json's shortest-round-trip printer) and merging (zip two sorted
   lists) trivial. *)

open Gmp_base
module J = Json

type hist = {
  edges : float array; (* strictly increasing upper bounds *)
  counts : int array; (* length edges+1; last slot = overflow *)
  mutable sum : float;
}

type cell = C of int ref | G of float ref | H of hist

type registry = { cells : (string, cell) Hashtbl.t }

type counter = int ref
type gauge = float ref
type histogram = hist

let create () = { cells = Hashtbl.create 32 }

let latency_buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0;
     10.0; 25.0; 50.0; 100.0; 250.0; 500.0 |]

let round_buckets = [| 1.0; 2.0; 3.0; 4.0; 6.0; 8.0; 12.0; 16.0; 24.0; 32.0; 48.0; 64.0 |]

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let mismatch name ~want got =
  invalid_arg
    (Printf.sprintf "Obs: metric %S is a %s, not a %s" name (kind_name got)
       want)

let counter r name =
  match Hashtbl.find_opt r.cells name with
  | Some (C c) -> c
  | Some cell -> mismatch name ~want:"counter" cell
  | None ->
    let c = ref 0 in
    Hashtbl.replace r.cells name (C c);
    c

let inc ?(by = 1) c = c := !c + by
let counter_value c = !c

let gauge r name =
  match Hashtbl.find_opt r.cells name with
  | Some (G g) -> g
  | Some cell -> mismatch name ~want:"gauge" cell
  | None ->
    let g = ref 0.0 in
    Hashtbl.replace r.cells name (G g);
    g

let set_gauge g v = g := v
let gauge_value g = !g

let check_edges name edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg (Printf.sprintf "Obs: histogram %S: no buckets" name);
  for i = 0 to n - 1 do
    if not (Float.is_finite edges.(i)) then
      invalid_arg (Printf.sprintf "Obs: histogram %S: non-finite edge" name);
    if i > 0 && edges.(i) <= edges.(i - 1) then
      invalid_arg
        (Printf.sprintf "Obs: histogram %S: edges not strictly increasing" name)
  done

let histogram ?(buckets = latency_buckets) r name =
  match Hashtbl.find_opt r.cells name with
  | Some (H h) ->
    if h.edges <> buckets then
      invalid_arg
        (Printf.sprintf "Obs: histogram %S re-registered with another layout"
           name);
    h
  | Some cell -> mismatch name ~want:"histogram" cell
  | None ->
    check_edges name buckets;
    let h =
      { edges = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        sum = 0.0 }
    in
    Hashtbl.replace r.cells name (H h);
    h

(* Smallest i with v <= edges.(i), else the overflow slot. *)
let bucket_of edges v =
  let n = Array.length edges in
  if v > edges.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= edges.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  let i = bucket_of h.edges v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sum <- h.sum +. v

module Snapshot = struct
  type histogram_data = {
    edges : float array;
    counts : int array;
    sum : float;
  }

  type metric = Counter of int | Gauge of float | Histogram of histogram_data

  (* Invariant: sorted by name, names unique. *)
  type t = (string * metric) list

  let empty = []
  let metrics t = t
  let find t name = List.assoc_opt name t
  let count (h : histogram_data) = Array.fold_left ( + ) 0 h.counts

  let quantile (h : histogram_data) q =
    let n = count h in
    if n = 0 then None
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let b = Array.length h.edges in
      let rec go i seen =
        if i > b then Some Float.infinity
        else
          let seen = seen + h.counts.(i) in
          if seen >= rank then
            if i = b then Some Float.infinity else Some h.edges.(i)
          else go (i + 1) seen
      in
      go 0 0
    end

  let merge_metric name a b =
    match (a, b) with
    | Counter x, Counter y -> Counter (x + y)
    | Gauge x, Gauge y -> Gauge (Float.max x y)
    | Histogram x, Histogram y ->
      if x.edges <> y.edges then
        invalid_arg
          (Printf.sprintf "Obs.Snapshot.merge: %S: bucket layouts differ" name);
      Histogram
        { edges = x.edges;
          counts = Array.init (Array.length x.counts) (fun i ->
              x.counts.(i) + y.counts.(i));
          sum = x.sum +. y.sum }
    | _ ->
      invalid_arg
        (Printf.sprintf "Obs.Snapshot.merge: %S: metric kinds differ" name)

  let rec merge a b =
    match (a, b) with
    | [], t | t, [] -> t
    | (ka, va) :: ra, (kb, vb) :: rb ->
      let c = String.compare ka kb in
      if c < 0 then (ka, va) :: merge ra b
      else if c > 0 then (kb, vb) :: merge a rb
      else (ka, merge_metric ka va vb) :: merge ra rb

  let merge_all = List.fold_left merge empty

  let to_json t =
    J.obj
      (List.map
         (fun (name, m) ->
           ( name,
             match m with
             | Counter v -> J.int v
             | Gauge v -> J.obj [ ("gauge", J.float v) ]
             | Histogram h ->
               J.obj
                 [ ( "buckets",
                     J.list (Array.to_list (Array.map J.float h.edges)) );
                   ("counts", J.list (Array.to_list (Array.map J.int h.counts)));
                   ("sum", J.float h.sum) ] ))
         t)

  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
  let ( let* ) = Result.bind

  let floats_of name j =
    match J.to_list_opt j with
    | None -> fail "%s: expected a list" name
    | Some xs ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: xs -> (
          match J.to_float_opt x with
          | Some f -> go (f :: acc) xs
          | None -> fail "%s: expected numbers" name)
      in
      go [] xs

  let ints_of name j =
    match J.to_list_opt j with
    | None -> fail "%s: expected a list" name
    | Some xs ->
      let rec go acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | x :: xs -> (
          match J.to_int_opt x with
          | Some i -> go (i :: acc) xs
          | None -> fail "%s: expected integers" name)
      in
      go [] xs

  let metric_of_json name j =
    match j with
    | J.Int v -> Ok (Counter v)
    | J.Obj _ -> (
      match (J.member "gauge" j, J.member "buckets" j) with
      | Some g, None -> (
        match J.to_float_opt g with
        | Some v -> Ok (Gauge v)
        | None -> fail "%s: gauge is not a number" name)
      | None, Some edges_j -> (
        let* edges = floats_of name edges_j in
        let* counts =
          match J.member "counts" j with
          | Some c -> ints_of name c
          | None -> fail "%s: histogram without counts" name
        in
        let* sum =
          match Option.bind (J.member "sum" j) J.to_float_opt with
          | Some s -> Ok s
          | None -> fail "%s: histogram without sum" name
        in
        if Array.length counts <> Array.length edges + 1 then
          fail "%s: %d counts for %d edges" name (Array.length counts)
            (Array.length edges)
        else
          match check_edges name edges with
          | () -> Ok (Histogram { edges; counts; sum })
          | exception Invalid_argument m -> Error m)
      | _ -> fail "%s: unrecognized metric shape" name)
    | _ -> fail "%s: unrecognized metric shape" name

  let of_json j =
    match J.to_obj_opt j with
    | None -> Error "metrics snapshot is not an object"
    | Some fields ->
      let rec go acc = function
        | [] ->
          Ok
            (List.sort_uniq
               (fun (a, _) (b, _) -> String.compare a b)
               (List.rev acc))
        | (name, v) :: rest ->
          let* m = metric_of_json name v in
          go ((name, m) :: acc) rest
      in
      go [] fields

  let pp ppf t =
    let row ppf (name, m) =
      match m with
      | Counter v -> Fmt.pf ppf "%-40s %d" name v
      | Gauge v -> Fmt.pf ppf "%-40s %g" name v
      | Histogram h ->
        let n = count h in
        let q p = match quantile h p with
          | Some v when Float.is_finite v -> Fmt.str "%g" v
          | Some _ -> ">max"
          | None -> "-"
        in
        Fmt.pf ppf "%-40s n=%-6d sum=%-10g p50=%s p90=%s p99=%s" name n h.sum
          (q 0.5) (q 0.9) (q 0.99)
    in
    Fmt.pf ppf "%a" Fmt.(list ~sep:(any "@\n") row) t
end

let snapshot r =
  Hashtbl.fold
    (fun name cell acc ->
      let m =
        match cell with
        | C c -> Snapshot.Counter !c
        | G g -> Snapshot.Gauge !g
        | H h ->
          Snapshot.Histogram
            { Snapshot.edges = Array.copy h.edges;
              counts = Array.copy h.counts;
              sum = h.sum }
      in
      (name, m) :: acc)
    r.cells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
