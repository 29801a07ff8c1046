(* Checked-in expectations for the deterministic E-scale counters.

   [events_fired], [messages_sent] and [trace_events] are functions of the
   seed and the simulation logic alone (the RNG is our own splitmix64, so
   they are identical across OCaml versions). The bench compares every
   scale run against this table and exits nonzero on drift, so silent
   behaviour changes fail CI even when the tests pass.

   [words_per_event] is the minor-heap allocation per fired event. Every
   scale cell runs in a fresh worker domain with a fresh vector-clock
   registry, so the measurement is reproducible; it is checked as a ceiling
   (+10%) rather than exactly, because allocation is sensitive to compiler
   version in a way the event counts are not. Before the copy-on-write
   vector clocks the single-crash column read 383/710/834 words per event
   at n = 64/128/256 — superlinear, because every heartbeat delivery
   copied an O(n) clock payload; it is now flat-ish and a regression past
   the ceiling fails the bench.

   History: relative to the PR 1 baseline, events_fired is lower by exactly
   the number of detector stops whose pending heartbeat tick used to fire as
   a no-op — `Heartbeat.stop` now cancels the scheduled tick (one stop per
   crash/quit: -1 on single-crash, -6/-12/-23 on churn 32/64/128).
   messages_sent and trace_events were unchanged there.

   The churn rows moved again with the PR 3 protocol bugfixes: join retries
   now round-robin from contacts.(0) instead of skipping it (different
   retry targets => different forward/commit traffic), and majority gates
   count only OKs from current non-faulty view members. single-crash (no
   joins, no stale OKs) is byte-identical; churn checker verdicts stay
   zero-violation.

   PR 7 flattened the last superlinear allocation: with suspicions
   outstanding (all of a churny run), `maybe_initiate` materialised the
   O(rank) `View.higher_ranked` seniors list after every delivery; it now
   walks the view once allocation-free. Churn words/event fell from
   97/177/337 (growing with n) to ~66/69/72 (flat); single-crash from
   67/74/87 to a flat ~60. All counts byte-identical.

   The heartbeat detector then stopped rebuilding its state every tick:
   the O(n^2) prune (a list scan per tracked peer, a list of stale pids
   and a filtered suspicion set per tick per process) now runs once per
   peer-set change, and a delivery no longer captures its endpoints' pids
   in its closure. Single-crash words/event fell from 60.0/60.0/60.0 to
   44.0/43.8/43.7 at n = 64/128/256, churn from 65.9/69.1/72.2 to
   50.2/53.3/56.0; the ceilings were re-pinned to match, so a return of
   the per-tick prune's allocation fails the bench. All counts
   byte-identical. *)

type row = {
  name : string;
  n : int;
  events_fired : int;
  messages_sent : int;
  trace_events : int;
  words_per_event : float;  (** ceiling; +10% slack before it fails *)
}

let rows =
  [ { name = "single-crash"; n = 64; events_fired = 235_370;
      messages_sent = 235_491; trace_events = 255; words_per_event = 45.0 };
    { name = "single-crash"; n = 128; events_fired = 954_026;
      messages_sent = 962_403; trace_events = 511; words_per_event = 45.0 };
    { name = "single-crash"; n = 256; events_fired = 3_841_322;
      messages_sent = 3_890_787; trace_events = 1023; words_per_event = 45.0 };
    { name = "churn"; n = 32; events_fired = 94_888;
      messages_sent = 92_578; trace_events = 820; words_per_event = 51.0 };
    { name = "churn"; n = 64; events_fired = 509_759;
      messages_sent = 502_504; trace_events = 2549; words_per_event = 54.0 };
    { name = "churn"; n = 128; events_fired = 3_167_121;
      messages_sent = 3_153_694; trace_events = 9365; words_per_event = 57.0 } ]

let find ~name ~n =
  List.find_opt (fun r -> String.equal r.name name && r.n = n) rows

(* Returns drift messages instead of accumulating them in a global: scale
   cells run concurrently on worker domains, so shared mutable state here
   would be a race. The bench driver collects the lists and exits nonzero
   if any are non-empty. *)
let check ~name ~n ~events_fired ~messages_sent ~trace_events ~words_per_event
    =
  match find ~name ~n with
  | None -> []
  | Some expected ->
    let failures = ref [] in
    let mismatch what got want =
      if got <> want then
        failures :=
          Printf.sprintf "%s n=%d: %s = %d, expected %d" name n what got want
          :: !failures
    in
    mismatch "events_fired" events_fired expected.events_fired;
    mismatch "messages_sent" messages_sent expected.messages_sent;
    mismatch "trace_events" trace_events expected.trace_events;
    let ceiling = expected.words_per_event *. 1.10 in
    if words_per_event > ceiling then
      failures :=
        Printf.sprintf
          "%s n=%d: minor words/event = %.0f, over the +10%% allocation \
           ceiling %.0f (baseline %.0f)"
          name n words_per_event ceiling expected.words_per_event
        :: !failures;
    List.rev !failures
