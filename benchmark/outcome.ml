(* What one run accumulates: the metric sheet, the operations attempted
   and failed, the correctness checks that did not hold, and the
   parameters the result file records. *)

type t = {
  sheet : Metrics.sheet;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable params : (string * Gmp_base.Json.t) list;
}

let create () =
  { sheet = Metrics.sheet (); attempted = 0; failed = 0; errors = []; params = [] }

let error o msg = o.errors <- msg :: o.errors
let check o cond msg = if not cond then error o msg
let check_result o = function Ok () -> () | Error m -> error o m

let attempt o ~attempted ~failed =
  o.attempted <- o.attempted + attempted;
  o.failed <- o.failed + failed

let param o name v = o.params <- o.params @ [ (name, v) ]
