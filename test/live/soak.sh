#!/usr/bin/env bash
# Live soak: a real 5-node loopback cluster under sustained injected
# weather - 10% datagram loss, 20ms +/- 10ms latency, duplication and
# reordering on every link - plus one SIGKILL and one join, must still
# converge to the correct view and pass the GMP checker on the
# reassembled trace. Run on two netem seeds: the per-link fault pattern
# differs, the verdict must not.
#
# Also gates on the ARQ counter rows gmp-cluster derives from each
# surviving node's final metrics line:
#   - arq.retransmits > 0    (the weather actually bit)
#   - netem.dropped > 0      (the injection layer actually dropped)
#   - arq.retransmit_rounds bounded (exponential backoff engaged: a fixed
#     0.25s rto with five nodes would burn thousands of rounds here)
#   - arq.acks_piggybacked > 0 (owed acks rode in front of reverse data)
#
# And on the merged metrics report: the cluster's own detection-latency
# histograms (derived from the reassembled trace plus the orchestrator's
# kill instants) must show every survivor converging after the SIGKILL,
# with p99 crash->view-installed under a generous 15s ceiling - the
# paper's whole point, measured, not eyeballed.
#
# Usage: soak.sh CLUSTER [udp|tcp]. Over TCP the same weather is injected
# at message ingress, and the gate additionally requires the transport
# counters to show >= 1 reconnect: the SIGKILL tears down live
# connections, so the survivors' ARQ retransmissions must have forced the
# connection machinery through its reconnect path.
#
# When GMP_LIVE_DIR is set (CI does), per-node logs and the JSON summary
# of every attempt are kept under it, so a failing job uploads the
# evidence instead of a verdict.
#
# Wall-clock tests on shared CI machines are noisy, so timeouts are
# generous and each seed gets one retry before failing the job.
set -u

CLUSTER="$1"
TRANSPORT="${2:-udp}"

# Every surviving node's counter summary must show the weather and the
# recovery machinery both engaged, without a retransmit storm.
check_arq() {
  out="$1"
  arq=$(printf '%s' "$out" | sed -n 's/.*"arq": \[\(.*\)\],"transport".*/\1/p')
  if [ -z "$arq" ]; then
    echo "no arq counters in summary" >&2
    return 1
  fi
  sum_key() {
    sum=0
    for v in $(printf '%s' "$arq" | grep -o "\"$1\": [0-9]*" | grep -o '[0-9]*$'); do
      sum=$((sum + v))
    done
    echo "$sum"
  }
  total_retrans=$(sum_key 'arq\.retransmits')
  total_dropped=$(sum_key 'netem\.dropped')
  total_rounds=$(sum_key 'arq\.retransmit_rounds')
  total_piggybacked=$(sum_key 'arq\.acks_piggybacked')
  echo "arq: retransmits=$total_retrans netem.dropped=$total_dropped rounds=$total_rounds piggybacked=$total_piggybacked"
  if [ "$total_retrans" -le 0 ]; then
    echo "expected retransmissions under 10% loss, saw none" >&2
    return 1
  fi
  if [ "$total_dropped" -le 0 ]; then
    echo "expected injected drops under 10% loss, saw none" >&2
    return 1
  fi
  # 14s run, rto 0.25 doubling to 4s: a handful of rounds per quiet
  # channel. 2000 across the fleet means backoff never engaged.
  if [ "$total_rounds" -le 0 ] || [ "$total_rounds" -ge 2000 ]; then
    echo "arq.retransmit_rounds=$total_rounds outside (0, 2000): backoff suspect" >&2
    return 1
  fi
  # Members talk both ways all run long: some acks must ride on data.
  if [ "$total_piggybacked" -le 0 ]; then
    echo "expected acks carried on data frames, saw none" >&2
    return 1
  fi
  return 0
}

# TCP only: the kill must have exercised reconnection somewhere in the
# fleet. (UDP has no connections, so there is nothing to gate on.)
check_transport() {
  out="$1"
  [ "$TRANSPORT" = "tcp" ] || return 0
  reconnects=0
  for v in $(printf '%s' "$out" | grep -o '"transport\.reconnects": [0-9]*' | grep -o '[0-9]*$'); do
    reconnects=$((reconnects + v))
  done
  echo "transport: reconnects=$reconnects"
  if [ "$reconnects" -lt 1 ]; then
    echo "expected >= 1 TCP reconnect after SIGKILL+join, saw none" >&2
    return 1
  fi
  return 0
}

# The metrics gate: the SIGKILL at t=4 leaves four survivors; every one
# must be measured converging (count >= 4) and the slowest (p99) must
# install the victim-free view within 15s - hb-timeout 2.5s plus flush
# rounds under weather leaves a wide margin; null (no sample landed in
# a finite bucket) fails.
check_latency() {
  out="$1"
  c2v=$(printf '%s' "$out" | sed -n 's/.*"crash_to_view_installed": {\([^}]*\)}.*/\1/p')
  if [ -z "$c2v" ]; then
    echo "no crash_to_view_installed in the latency summary" >&2
    return 1
  fi
  count=$(printf '%s' "$c2v" | sed -n 's/.*"count": \([0-9]*\).*/\1/p')
  p99=$(printf '%s' "$c2v" | sed -n 's/.*"p99": \([0-9.]*\).*/\1/p')
  echo "latency: crash->view-installed count=${count:-none} p99=${p99:-null}"
  if [ -z "$count" ] || [ "$count" -lt 4 ]; then
    echo "expected every survivor measured (count >= 4), got ${count:-none}" >&2
    return 1
  fi
  if [ -z "$p99" ]; then
    echo "p99 crash->view-installed is null: no finite samples" >&2
    return 1
  fi
  if ! awk "BEGIN { exit !($p99 < 15.0) }"; then
    echo "p99 crash->view-installed ${p99}s exceeds the 15s gate" >&2
    return 1
  fi
  return 0
}

run_seed() {
  seed="$1"
  for attempt in 1 2; do
    keep_args=""
    if [ -n "${GMP_LIVE_DIR:-}" ]; then
      rundir="$GMP_LIVE_DIR/soak-$TRANSPORT-seed$seed-attempt$attempt"
      mkdir -p "$rundir"
      keep_args="--dir $rundir --keep-logs"
    fi
    out=$("$CLUSTER" --transport "$TRANSPORT" --nodes 5 --run-for 14 \
      --loss 0.1 --latency 0.02 --jitter 0.01 --dup 0.05 --reorder 0.1 \
      --netem-seed "$seed" \
      --kill 4:p2 --join 6:p7 \
      $keep_args --json 2>&1)
    code=$?
    if [ -n "${GMP_LIVE_DIR:-}" ]; then
      printf '%s\n' "$out" > "$rundir/summary.json"
    fi
    if [ "$code" -eq 0 ]; then
      view=$(printf '%s' "$out" | sed -n 's/.*"final_view": \[\([^]]*\)\].*/\1/p' | tr -d '" ')
      if [ "$view" != "p0,p1,p3,p4,p7" ]; then
        echo "attempt $attempt: seed $seed converged to [$view]" >&2
      elif check_arq "$out" && check_transport "$out" && check_latency "$out"; then
        echo "ok: seed $seed -> [$view] (attempt $attempt)"
        return 0
      fi
    else
      echo "attempt $attempt: seed $seed exited $code" >&2
      printf '%s\n' "$out" >&2
    fi
    sleep 2
  done
  echo "FAIL: soak seed $seed" >&2
  return 1
}

run_seed 1 || exit 1
run_seed 2 || exit 1

echo "live soak passed ($TRANSPORT)"
