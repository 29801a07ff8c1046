(* Core vocabulary of the membership protocol. *)

open Gmp_base

(* A view update: each instance of the algorithm changes the view by exactly
   one process (§7: this keeps majorities of neighbouring views
   intersecting). *)
type op = Add of Pid.t | Remove of Pid.t

let op_target = function Add p -> p | Remove p -> p

let is_remove = function Remove _ -> true | Add _ -> false

let op_equal a b =
  match (a, b) with
  | Add p, Add q | Remove p, Remove q -> Pid.equal p q
  | Add _, Remove _ | Remove _, Add _ -> false

let pp_op ppf = function
  | Add p -> Fmt.pf ppf "add(%a)" Pid.pp p
  | Remove p -> Fmt.pf ppf "remove(%a)" Pid.pp p

(* The committed operation sequence. Version x is the result of applying the
   first x operations to the initial group; GMP-3 makes all processes' seqs
   prefixes of one canonical sequence. *)
type seq = op list

let is_prefix ~prefix full =
  let rec go p f =
    match (p, f) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: p', y :: f' -> op_equal x y && go p' f'
  in
  go prefix full

let seq_drop n seq =
  let rec go n = function
    | rest when n <= 0 -> rest
    | [] -> []
    | _ :: rest -> go (n - 1) rest
  in
  go n seq

let pp_seq ppf seq = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ";") pp_op) seq

(* The paper's next(p) entries: how p expects its local view to change.
   [Awaiting_proposal r] is the placeholder triple (? : r : ?) appended when
   p answers r's interrogation; [Expected] is the paper's (op(z) : r : x),
   except that we store the full canonical sequence up to x rather than a
   receiver-relative diff: respondents at different versions then report the
   {e same} pending proposal identically, which is what ProposalsForVer
   needs to deduplicate soundly (see DESIGN.md). *)
type expectation =
  | Awaiting_proposal of Pid.t
  | Expected of { canonical : seq; coord : Pid.t; ver : int }
      (* ver = List.length canonical: the version this proposal installs *)

let pp_expectation ppf = function
  | Awaiting_proposal r -> Fmt.pf ppf "(? : %a : ?)" Pid.pp r
  | Expected { canonical; coord; ver } ->
    Fmt.pf ppf "(%a : %a : %d)" pp_seq canonical Pid.pp coord ver
