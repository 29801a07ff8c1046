(** Core vocabulary of the membership protocol. *)

open Gmp_base

(** A view update. Each instance of the algorithm changes the view by
    exactly one process (§7): this keeps majority subsets of neighbouring
    views intersecting, which both uniqueness (GMP-2) and invisible-commit
    detection (GMP-3) rely on. *)
type op = Add of Pid.t | Remove of Pid.t

val op_target : op -> Pid.t
val is_remove : op -> bool
val op_equal : op -> op -> bool
val pp_op : op Fmt.t

type seq = op list
(** The committed operation sequence: version [x] is the result of applying
    the first [x] operations to the initial group. GMP-3 makes every
    process's seq a prefix of one canonical sequence. *)

val is_prefix : prefix:seq -> seq -> bool
val seq_drop : int -> seq -> seq
val pp_seq : seq Fmt.t

(** The paper's [next(p)] entries: how [p] expects its local view to change.
    [Awaiting_proposal r] is the placeholder triple [(? : r : ?)] appended
    when [p] answers [r]'s interrogation. [Expected] is the paper's
    [(op(z) : r : x)], storing the full canonical sequence up to [x] so that
    respondents at different versions report the same pending proposal
    identically (what [ProposalsForVer] needs to deduplicate soundly). *)
type expectation =
  | Awaiting_proposal of Pid.t
  | Expected of { canonical : seq; coord : Pid.t; ver : int }

val pp_expectation : expectation Fmt.t
