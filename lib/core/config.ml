(* Protocol configuration. *)

type t = {
  heartbeats : bool;
      (* Run the heartbeat detector (F1). Scripted experiments may turn it
         off and drive suspicions themselves; liveness then depends on the
         script covering every stall. *)
  heartbeat_interval : float;
  heartbeat_timeout : float;
  compressed : bool;
      (* Piggyback the next invitation on commit messages (§3.1). Off =
         the plain two-phase algorithm, used as the §7.2 comparison. *)
  require_majority_update : bool;
      (* Final algorithm (Figure 8, line FA.1): Mgr needs a majority of OKs
         before committing. The basic algorithm (§3.1, Mgr never fails)
         tolerates |view|-1 failures and sets this to false. *)
  require_majority_reconf : bool;
      (* GMP-2 uniqueness: a reconfigurer needs majorities in phases 1 and
         2. The paper's s8 notes some applications (Deceit [19], El
         Abbadi-Toueg [1]) drop uniqueness and let partitions run their own
         views, reconciling at a higher level: turn this off to get that
         partitioned mode - the checker will (correctly) report the
         divergence, which is the point. *)
  reconf_reuse : bool;
      (* §8's future-work optimization: when a process suspects an
         initiator it had answered, it sends its interrogation reply
         unsolicited to the predicted successor, which can then skip
         interrogating it. Replies are used only while both sides are
         still at the same version; Determine re-validates everything it
         propagates. Off by default. *)
  reconf_reuse_grace : float;
      (* How long an initiator-to-be waits for pre-sent replies to land
         before interrogating (trades recovery latency for messages). *)
}

let default =
  { heartbeats = true;
    heartbeat_interval = 2.0;
    heartbeat_timeout = 10.0;
    compressed = true;
    require_majority_update = true;
    require_majority_reconf = true;
    reconf_reuse = false;
    reconf_reuse_grace = 5.0 }

let optimized = { default with reconf_reuse = true }

let basic = { default with require_majority_update = false }

let uncompressed = { default with compressed = false }

let scripted_only = { default with heartbeats = false }

(* The s8 partitioned variation: every side of a partition keeps its own
   view sequence (system views are no longer unique). *)
let partitionable =
  { default with
    require_majority_update = false;
    require_majority_reconf = false }
