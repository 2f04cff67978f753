#!/usr/bin/env bash
# Full verification chain: tier-1 build+tests, a run of every example
# program (each must exit 0), 50 repeats of the parallel
# determinism pins, the ASan/UBSan and TSan sweeps, an
# OpenMetrics exposition self-check (simulate --metrics-format openmetrics
# must lint clean under tools/metrics_check, including the per-title wait
# sketch vs clients-served invariant), a span capture self-check (a seeded
# simulate --spans-out run must reconcile against its own --metrics-out dump
# under tools/trace_analyze --check, keep two loaders and a bounded buffer
# per client, and record no jitter), a fault-injection self-check (a
# seeded simulate --fault-plan span capture must satisfy the hit = repair +
# degraded contract under tools/trace_analyze, with no jitter, and its
# stdout, span and trace exports must be byte-identical at --plan-cache 0), a
# control-plane self-check (a seeded hybrid --adaptive run with a
# popularity flip must keep one download per loader and drain before every
# reallocation under tools/trace_analyze --max-loaders 1), one mutated
# copy of a real capture per trace_analyze contract (each must exit 1
# naming its violation), a metro federation
# self-check (a seeded 4-region vodbcast metro run must conserve arrivals
# across served-local/rerouted/rejected under tools/metrics_check and
# reproduce its stdout and metrics byte for byte at --threads 4, and a
# five-window run, with and without a dark region, at --threads 2, 3
# and 4), a
# replication self-check (simulate --reps 4, hybrid --reps 3 and
# hybrid --adaptive --reps 3, exact and at --stats-cap 64, must give
# byte-identical stdout and span exports at --threads 1 and --threads 4),
# an O(live state) self-check
# (simulate, hybrid, hybrid --adaptive and metro each peak within 10% of
# their 1x-horizon RSS at 10x the horizon), a
# CLI strictness self-check (a misspelled flag must exit 2 and name the
# flag, not fall back to its default; a failed output write must exit 1
# naming the path; a negative --fault-retries, an unknown --policy,
# --reps 0, a nan or non-positive --horizon, a negative
# --reject-penalty, a --flip-at outside [0, horizon), a --plan-cache
# other than 0 or 1 and a fault plan on a scheme without planned SB
# clients must exit 1 naming the bound; --trace-out outside simulate,
# --fault-seed or --fault-retries without --fault-plan must exit 2 naming
# the flag, and so must a malformed flag of trace_analyze, bench_diff and
# metrics_check), a
# quick pass of the bench suite to prove every binary still writes a valid
# BENCH_*.json that bench_diff can read back and that names the checked-out
# commit, and (opt-in) the mechanical perf gate against the committed
# trajectory.
#
#   scripts/verify_all.sh [--skip-sanitize] [--perf-gate]
#                         [--perf-threshold FRAC]
#
#   --perf-gate   run the full bench suite twice, interleaved with nothing
#                 in between (A then B on the same build), diff A/B to
#                 measure the machine's noise floor, then gate the A run
#                 against the committed root BENCH_*.json via bench_diff.
#                 Exits non-zero on any wall-p50 regression beyond the
#                 threshold — the trajectory gate, made mechanical.
#   --perf-threshold FRAC  relative band handed to bench_diff (default
#                 0.05; raise on noisy machines).
set -euo pipefail
cd "$(dirname "$0")/.."

skip_sanitize=0
perf_gate=0
perf_threshold=0.05
while [[ $# -gt 0 ]]; do
  case "$1" in
    --skip-sanitize) skip_sanitize=1; shift ;;
    --perf-gate) perf_gate=1; shift ;;
    --perf-threshold) perf_threshold=$2; shift 2 ;;
    --perf-threshold=*) perf_threshold=${1#--perf-threshold=}; shift ;;
    *)
      echo "usage: $0 [--skip-sanitize] [--perf-gate]" \
           "[--perf-threshold FRAC]" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

echo "== examples =="
for example in quickstart metropolitan_vod scheme_comparison tune_width \
               vcr_session lossy_network; do
  build/examples/"$example" > /dev/null
done

echo "== parallel determinism stress =="
# The slot/merge pins race only under real concurrency: repeat them so a
# data race that a single run can miss shows up on a multicore host.
build/tests/test_parallel --gtest_repeat=50 --gtest_brief=1

if [[ $skip_sanitize -eq 0 ]]; then
  echo "== sanitize sweep =="
  scripts/verify_sanitize.sh
fi

echo "== openmetrics exposition self-check =="
om_dir=$(mktemp -d)
trap 'rm -rf "$om_dir"' EXIT
build/tools/vodbcast simulate --scheme SB:W=52 --bandwidth 300 \
  --horizon 120 --arrivals 4 --seed 42 \
  --metrics-format openmetrics --metrics-out "$om_dir/metrics.txt"
build/tools/metrics_check "$om_dir/metrics.txt" \
  'sum(sb_client_wait_count{title=*}) == sim_clients_served_total' \
  'sim_tune_wait_sketch_min_count == sim_clients_served_total' \
  --verbose

echo "== metro-scale hot-path self-check =="
# A >=100k-client campaign with the phase-keyed plan cache and streaming
# (sample-capped) wait statistics both on. Two invariants: every lookup is
# accounted (hits + misses == clients served), and no lookup path changes
# the report — byte-identical stdout, so the wait distribution, client
# count, and buffer peak all match exactly. The three paths: cached views
# (a sink is attached), the cache's summary table (no sink, no faults) and
# no cache at all.
metro_args=(--scheme SB:W=52 --bandwidth 600 --videos 20
            --horizon 600 --arrivals 200 --seed 7 --stats-cap 4096)
build/tools/vodbcast simulate "${metro_args[@]}" --plan-cache 1 \
  --metrics-format openmetrics --metrics-out "$om_dir/metro.txt" \
  > "$om_dir/metro_cache_on.txt"
build/tools/metrics_check "$om_dir/metro.txt" \
  'sim_plan_cache_hits_total + sim_plan_cache_misses_total == sim_clients_served_total' \
  --verbose
build/tools/vodbcast simulate "${metro_args[@]}" --plan-cache 1 \
  > "$om_dir/metro_cache_summary.txt"
build/tools/vodbcast simulate "${metro_args[@]}" --plan-cache 0 \
  > "$om_dir/metro_cache_off.txt"
diff "$om_dir/metro_cache_on.txt" "$om_dir/metro_cache_summary.txt"
diff "$om_dir/metro_cache_on.txt" "$om_dir/metro_cache_off.txt"
grep -Eq 'clients served: [0-9]{6,}' "$om_dir/metro_cache_on.txt" || {
  echo "metro smoke: expected >=100k clients served" >&2
  exit 1
}
# The same three paths on the layout the metro campaign runs (SB:W=52 at
# 2400 Mb/s gives each title K = 80 segments). The cached views keep one
# plan per phase visited, so 3900 entries prove the arrivals visit every
# phase of the period: the plain run fills its whole summary table through
# client::plan_summary, and its stdout must match the views' and the
# uncached run's byte for byte.
metro80_args=(--scheme SB:W=52 --bandwidth 2400 --videos 20
              --horizon 360 --arrivals 200 --seed 7 --stats-cap 4096)
build/tools/vodbcast simulate "${metro80_args[@]}" \
  --metrics-format openmetrics --metrics-out "$om_dir/metro80.txt" \
  > "$om_dir/metro80_views.txt"
build/tools/metrics_check "$om_dir/metro80.txt" \
  'sim_plan_cache_entries == 3900' --verbose
build/tools/vodbcast simulate "${metro80_args[@]}" \
  > "$om_dir/metro80_summary.txt"
build/tools/vodbcast simulate "${metro80_args[@]}" --plan-cache 0 \
  > "$om_dir/metro80_off.txt"
diff "$om_dir/metro80_views.txt" "$om_dir/metro80_summary.txt"
diff "$om_dir/metro80_views.txt" "$om_dir/metro80_off.txt"

echo "== O(live state) self-check =="
# Every engine pulls its arrivals from a feed, so its memory follows the
# live state (queues, pending events, sample-capped statistics), not the
# horizon: at 10x the horizon and the same rate, each engine's peak RSS
# stays within 10% of its 1x peak. Scale the horizon, never the rate: a
# higher rate grows the live queues, which is not a leak. A small fork/exec
# launcher takes the child's ru_maxrss from wait4, so no parent process
# inflates the reading and nothing is written under /proc.
cat > "$om_dir/peak_rss.c" <<'LAUNCHER'
#include <fcntl.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

/* peak_rss CMD [ARG...]: runs CMD with its output discarded and prints its
   peak resident set in kB; exits 1 if CMD fails. */
int main(int argc, char** argv) {
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, STDOUT_FILENO);
    dup2(null_fd, STDERR_FILENO);
    execvp(argv[1], argv + 1);
    _exit(127);
  }
  int status = 0;
  struct rusage usage;
  if (pid < 0 || wait4(pid, &status, 0, &usage) < 0) {
    perror("peak_rss");
    return 2;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    fprintf(stderr, "peak_rss: %s failed (status %d)\n", argv[1], status);
    return 1;
  }
  printf("%ld\n", usage.ru_maxrss);
  return 0;
}
LAUNCHER
"${CC:-cc}" -O2 -o "$om_dir/peak_rss" "$om_dir/peak_rss.c"
# expect_flat_rss HORIZON ARGS...: `vodbcast ARGS...` at 10x HORIZON must
# peak within 10% of its peak at HORIZON.
expect_flat_rss() {
  local horizon=$1
  shift
  local small big
  small=$("$om_dir/peak_rss" build/tools/vodbcast "$@" \
    --horizon "$horizon" --stats-cap 65536)
  big=$("$om_dir/peak_rss" build/tools/vodbcast "$@" \
    --horizon "$((horizon * 10))" --stats-cap 65536)
  echo "vodbcast $*: peak RSS ${small} kB at --horizon $horizon," \
       "${big} kB at 10x"
  if (( big * 10 > small * 11 )); then
    echo "O(live state): 'vodbcast $*' peaks at ${big} kB at 10x the" \
         "horizon, more than 10% over ${small} kB" >&2
    exit 1
  fi
}
expect_flat_rss 600 simulate --scheme SB:W=52 --bandwidth 2400 --videos 20 \
  --arrivals 2000
expect_flat_rss 6000 hybrid --arrivals 200
expect_flat_rss 6000 hybrid --adaptive --popularity-flip --arrivals 200
expect_flat_rss 600 metro --regions 700,500,300,200 \
  --channels 400,300,200,140

echo "== span capture self-check =="
# trace_analyze reconciles the spans with the run's own metrics and checks
# the paper's client invariants on every session: at most two loaders and
# a buffer that never runs dry. Jitter has no span, so its counter must
# read 0 in the same seeded run's exposition.
span_args=(--scheme SB:W=52 --bandwidth 300 --horizon 120 --arrivals 4
           --seed 42)
build/tools/vodbcast simulate "${span_args[@]}" \
  --metrics-out "$om_dir/metrics.json" \
  --spans-out "$om_dir/spans.jsonl" --spans-limit 131072
build/tools/vodbcast simulate "${span_args[@]}" \
  --metrics-format openmetrics --metrics-out "$om_dir/spans_metrics.txt"
build/tools/metrics_check "$om_dir/spans_metrics.txt" \
  'sim_jitter_events_total == 0'
build/tools/trace_analyze "$om_dir/spans.jsonl" \
  --check --metrics "$om_dir/metrics.json" | tee "$om_dir/spans_analysis.txt"
# The observed buffer peak is a cap the capture meets exactly.
peak_units=$(grep -o 'peak [0-9.]* units' "$om_dir/spans_analysis.txt" \
  | awk '{printf "%d", $2}')
build/tools/trace_analyze "$om_dir/spans.jsonl" --max-units "$peak_units" \
  > /dev/null

echo "== fault-injection self-check =="
# Injected damage never becomes silent: no jitter, and every fault_hit
# span on a (client, segment) is matched by a repair or a fault_degraded.
fault_args=(simulate --scheme SB:W=12 --bandwidth 300 --horizon 240
  --arrivals 4 --seed 42 --fault-plan outages=2,bursts=2,stalls=1,restart=1
  --fault-seed 7 --spans-limit 262144)
build/tools/vodbcast "${fault_args[@]}" --spans-out "$om_dir/faults.jsonl" \
  --trace-out "$om_dir/faults_trace.jsonl" \
  --metrics-format openmetrics --metrics-out "$om_dir/faults_metrics.txt" \
  > "$om_dir/faults_stdout.txt"
# The fold reads a walked plan from the cache or from the planner; both
# must record the same run.
build/tools/vodbcast "${fault_args[@]}" --plan-cache 0 \
  --spans-out "$om_dir/faults_nocache.jsonl" \
  --trace-out "$om_dir/faults_nocache_trace.jsonl" \
  > "$om_dir/faults_nocache_stdout.txt"
for capture in _stdout.txt .jsonl _trace.jsonl; do
  if ! cmp -s "$om_dir/faults$capture" "$om_dir/faults_nocache$capture"; then
    echo "fault self-check: --plan-cache 0 changed faults$capture" >&2
    exit 1
  fi
done
build/tools/metrics_check "$om_dir/faults_metrics.txt" \
  'sim_jitter_events_total == 0' \
  'sum(fault_hits_total{kind=*}) == fault_repairs_total + fault_degraded_total'
build/tools/trace_analyze "$om_dir/faults.jsonl" \
  | tee "$om_dir/faults_analysis.txt"
grep -Eq 'fault contract checked: [0-9]+ episode\(s\), [1-9][0-9]* hit' \
  "$om_dir/faults_analysis.txt" || {
  echo "fault self-check: the capture holds no fault hit to check" >&2
  exit 1
}

echo "== control plane self-check =="
# hybrid --adaptive is the event engine's main heap user: epochs, drains,
# the popularity flip, batch completions. A client never needs more than
# one loader, and every channel moves only after its drain completes.
build/tools/vodbcast hybrid --adaptive --bandwidth 120 --catalog 50 \
  --hot 10 --channels 6 --duration 60 --arrivals 6 --horizon 1200 \
  --epoch-minutes 60 --min-tail 8 --popularity-flip \
  --spans-out "$om_dir/adaptive.jsonl" --spans-limit 262144 > /dev/null
build/tools/trace_analyze "$om_dir/adaptive.jsonl" --max-loaders 1 \
  | tee "$om_dir/adaptive_analysis.txt"
grep -Eq 'drain contract checked over [1-9][0-9]* handoff' \
  "$om_dir/adaptive_analysis.txt" || {
  echo "control plane self-check: the capture holds no drain to check" >&2
  exit 1
}

echo "== trace_analyze contract mutations =="
# Each contract must fail on a copy of a real capture broken in its one
# way: exit 1, naming the violation.
# expect_violation TEXT ARGS...: `trace_analyze ARGS...` must exit 1 and
# print TEXT.
expect_violation() {
  local text=$1
  shift
  local rc=0
  build/tools/trace_analyze "$@" > "$om_dir/mutant.txt" 2>&1 || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -qF -- "$text" "$om_dir/mutant.txt"; then
    echo "contract mutation: expected 'trace_analyze $*' to exit 1" \
         "naming \"$text\", got $rc:" >&2
    cat "$om_dir/mutant.txt" >&2
    exit 1
  fi
}
# Fault: one repair deleted leaves its hit unresolved.
awk '!cut && /"phase":"repair"/ { cut = 1; next } 1' \
  "$om_dir/faults.jsonl" > "$om_dir/mutant_faults.jsonl"
expect_violation 'fault hit(s) minus repair(s) and degraded = 1' \
  "$om_dir/mutant_faults.jsonl"
# Drain: one broadcast playback moved across its title's drain end.
python3 - "$om_dir/adaptive.jsonl" "$om_dir/mutant_drain.jsonl" <<'MUTATE'
import json
import sys

spans = [json.loads(line) for line in open(sys.argv[1])]
by_id = {s["id"]: s for s in spans}
tuned = {s["parent"] for s in spans if s["phase"] == "tune"}
drain_ends = {}
for s in spans:
    if s["phase"] == "drain":
        drain_ends.setdefault(s["video"], s["end"])
for s in spans:
    session = by_id.get(s["parent"], {})
    epoch = by_id.get(session.get("parent"), {}).get("phase") == "epoch"
    if (s["phase"] == "playback" and s["video"] in drain_ends
            and (s["parent"] in tuned or epoch)):
        half = (s["end"] - s["start"]) / 2
        s["start"] = drain_ends[s["video"]] - half
        s["end"] = drain_ends[s["video"]] + half
        break
else:
    sys.exit("no broadcast playback of a drained title to move")
with open(sys.argv[2], "w") as out:
    for s in spans:
        out.write(json.dumps(s, separators=(",", ":")) + "\n")
MUTATE
expect_violation 'spans the drain handoff' "$om_dir/mutant_drain.jsonl"
# Loader cap: the SB client runs two loaders, so a cap of one must fail.
expect_violation 'concurrent downloads (cap 1)' "$om_dir/spans.jsonl" \
  --max-loaders 1
# Buffer: one unit below the observed peak.
expect_violation "units (cap $((peak_units - 1)))" "$om_dir/spans.jsonl" \
  --max-units "$((peak_units - 1))"

echo "== metro federation self-check =="
# A seeded 4-region federation. Every arrival must be accounted for by
# exactly one of the three admission outcomes (the router's conservation
# law), and the slot/merge contract must hold end to end: the --threads 4
# run reproduces the serial stdout and metrics dump byte for byte.
fed_args=(--regions 40,30,20,10 --channels 120 --horizon 120 --seed 7
          --replicate-top 8)
build/tools/vodbcast metro "${fed_args[@]}" \
  --metrics-format openmetrics --metrics-out "$om_dir/fed.txt" \
  > "$om_dir/fed_serial.txt"
build/tools/metrics_check "$om_dir/fed.txt" \
  'sum(metro_served_local_total{region=*}) + sum(metro_rerouted_total{region=*}) + sum(metro_rejected_total{region=*}) == metro_arrivals_total' \
  'sum(metro_region_arrivals_total{region=*}) == metro_arrivals_total' \
  --verbose
build/tools/vodbcast metro "${fed_args[@]}" --threads 4 \
  --metrics-format openmetrics --metrics-out "$om_dir/fed_t4.txt" \
  > "$om_dir/fed_pooled.txt"
diff "$om_dir/fed_serial.txt" "$om_dir/fed_pooled.txt"
diff "$om_dir/fed.txt" "$om_dir/fed_t4.txt"
# One region dark: the federation must keep the conservation law while
# rerouting the survivors' share of the dark head end's broadcast demand.
build/tools/vodbcast metro "${fed_args[@]}" --dark 0 \
  --metrics-format openmetrics --metrics-out "$om_dir/fed_dark.txt" \
  > /dev/null
build/tools/metrics_check "$om_dir/fed_dark.txt" \
  'sum(metro_served_local_total{region=*}) + sum(metro_rerouted_total{region=*}) + sum(metro_rejected_total{region=*}) == metro_arrivals_total' \
  --verbose
# The runs above fit in one 2^15-arrival window. At --horizon 1500 (about
# 150k arrivals, five windows) the pipelined window loop routes one window
# while the pool generates the next and accounts the previous one; every
# pool size must reproduce the serial stdout and metrics dump, with all
# regions up and with region 0 dark (the failover and spill paths).
fed_long_args=(--regions 40,30,20,10 --channels 120 --horizon 1500 --seed 7
               --replicate-top 8)
for fed_dark in up dark; do
  fed_extra=()
  if [[ $fed_dark == dark ]]; then
    fed_extra=(--dark 0)
  fi
  for threads in 1 2 3 4; do
    build/tools/vodbcast metro "${fed_long_args[@]}" "${fed_extra[@]}" \
      --threads "$threads" --metrics-format openmetrics \
      --metrics-out "$om_dir/fed_${fed_dark}_t$threads.txt" \
      > "$om_dir/fed_${fed_dark}_t$threads.out"
  done
  grep -Eq 'arrivals *: *1[0-9]{5}' "$om_dir/fed_${fed_dark}_t1.out" || {
    echo "metro pipeline self-check: expected >=100k arrivals" >&2
    exit 1
  }
  for threads in 2 3 4; do
    diff "$om_dir/fed_${fed_dark}_t1.out" "$om_dir/fed_${fed_dark}_t$threads.out"
    diff "$om_dir/fed_${fed_dark}_t1.txt" "$om_dir/fed_${fed_dark}_t$threads.txt"
  done
done

echo "== replication self-check =="
# Replicated runs go through one driver (sim::replicate): seeds, folds and
# span merges must not depend on the pool, so one worker and four give the
# same report and the same span export, byte for byte. The capped runs fold
# each replication's distributions into sketches and merge those, so their
# stdout prints sketch quantiles and folded counts.
for cap_args in "" "--stats-cap 64"; do
  for reps_cmd in "simulate --horizon 60 --reps 4" \
                  "hybrid --horizon 600 --reps 3" \
                  "hybrid --adaptive --horizon 600 --reps 3"; do
    read -r -a reps_args <<< "$reps_cmd $cap_args"
    for threads in 1 4; do
      build/tools/vodbcast "${reps_args[@]}" --threads "$threads" \
        --spans-out "$om_dir/reps_t$threads.jsonl" --spans-limit 262144 \
        > "$om_dir/reps_t$threads.txt" 2> /dev/null
    done
    diff "$om_dir/reps_t1.txt" "$om_dir/reps_t4.txt"
    diff "$om_dir/reps_t1.jsonl" "$om_dir/reps_t4.jsonl"
    grep -q 'replications *: [34]' "$om_dir/reps_t1.txt" || {
      echo "replication self-check: '$reps_cmd' did not replicate" >&2
      exit 1
    }
    if [[ -n $cap_args ]] && ! grep -q 'folded=' "$om_dir/reps_t1.txt"; then
      echo "replication self-check: '$reps_cmd $cap_args' did not fold" >&2
      exit 1
    fi
  done
done

echo "== CLI strictness self-check =="
# expect_cli_error RC TEXT ARGS...: `vodbcast ARGS...` must exit RC with
# TEXT on stderr.
expect_cli_error() {
  local want=$1 text=$2
  shift 2
  local rc=0
  build/tools/vodbcast "$@" > /dev/null 2> "$om_dir/cli_err.txt" || rc=$?
  if [[ $rc -ne $want ]] || ! grep -qF -- "$text" "$om_dir/cli_err.txt"; then
    echo "cli strictness: expected 'vodbcast $*' to exit $want naming" \
         "\"$text\", got $rc:" >&2
    cat "$om_dir/cli_err.txt" >&2
    exit 1
  fi
}
# A typo must fail loudly instead of running with the default horizon.
expect_cli_error 2 '--horizn' simulate --horizn 10
# A value outside a flag's bound must fail instead of running: a negative
# retry budget would stamp degradations before their hits, an unknown
# policy would run MQL, and --reps 0 would run one replication.
expect_cli_error 1 'retry budget must be >= 0' simulate --scheme SB:W=52 \
  --horizon 120 --arrivals 4 --fault-plan outages=2,bursts=1 \
  --fault-retries -1
expect_cli_error 1 'retry budget must be >= 0' hybrid --adaptive \
  --horizon 120 --fault-plan outages=2 --fault-retries -1
expect_cli_error 1 "--policy must be 'mql' or 'fcfs', got 'bogus'" \
  hybrid --policy bogus --horizon 60
expect_cli_error 1 "--policy must be 'mql' or 'fcfs', got 'nonsense'" \
  hybrid --adaptive --policy nonsense --horizon 60
for reps_cmd in simulate hybrid "hybrid --adaptive" metro; do
  read -r -a reps_args <<< "$reps_cmd"
  expect_cli_error 1 '--reps must be at least 1, got 0' \
    "${reps_args[@]}" --reps 0 --horizon 10
done
# Neither may a horizon or a duration the engines cannot run: a nan
# horizon ran an empty simulation, a negative one an empty report, and a
# negative reject penalty averaged into negative penalized waits.
expect_cli_error 1 "--horizon expects a finite number, got 'nan'" \
  simulate --horizon nan
expect_cli_error 1 'config.horizon.v > 0.0' simulate --horizon -5
expect_cli_error 1 'config.horizon.v > 0.0' hybrid --horizon -1
expect_cli_error 1 'reject_penalty must be finite and non-negative' \
  metro --reject-penalty -30 --horizon 10
# Only simulate records trace events; the other engines record spans, so
# --trace-out there would write an empty file.
expect_cli_error 2 '--trace-out' metro --trace-out "$om_dir/x.json"
expect_cli_error 2 '--trace-out' hybrid --adaptive \
  --trace-out "$om_dir/x.jsonl"
# Outside [0, horizon) the engine never flips: a later flip would be
# reported as "NOT re-converged", a negative one silently ignored.
expect_cli_error 1 \
  '--flip-at must be >= 0 and below the horizon (1500 min), got 5000' \
  hybrid --adaptive --flip-at 5000 --horizon 1500
expect_cli_error 1 \
  '--flip-at must be >= 0 and below the horizon (1500 min), got -5' \
  hybrid --adaptive --flip-at -5 --horizon 1500
# Only planned SB clients are assessed against a fault plan; any other
# scheme used to run and report no damage.
expect_cli_error 1 'a fault plan with episodes needs an SB scheme' \
  simulate --scheme PB:a --fault-plan outages=2 --horizon 60
# --plan-cache is a switch: 7 used to run with the cache on.
expect_cli_error 1 '--plan-cache must be 0 or 1, got 7' \
  simulate --plan-cache 7 --horizon 10
# Only a fault plan reads its seed and retry budget; without one these
# flags used to run as if absent.
expect_cli_error 2 '--fault-retries needs --fault-plan' \
  simulate --fault-retries 3 --horizon 10
expect_cli_error 2 '--fault-retries needs --fault-plan' \
  hybrid --adaptive --fault-retries 2 --horizon 60
expect_cli_error 2 '--fault-seed needs --fault-plan' \
  metro --fault-seed 5 --horizon 10
# The tools reject a malformed flag as a usage error, naming it, instead
# of aborting in std::terminate.
expect_tool_error() {
  local text=$1 tool=$2
  shift 2
  local rc=0
  "build/tools/$tool" "$@" > /dev/null 2> "$om_dir/cli_err.txt" || rc=$?
  if [[ $rc -ne 2 ]] || ! grep -qF -- "$text" "$om_dir/cli_err.txt" \
      || grep -q 'terminate called' "$om_dir/cli_err.txt"; then
    echo "cli strictness: expected '$tool $*' to exit 2 naming" \
         "\"$text\", got $rc:" >&2
    cat "$om_dir/cli_err.txt" >&2
    exit 1
  fi
}
expect_tool_error '--top is given more than once' trace_analyze x.jsonl \
  --top 1 --top 2
expect_tool_error "bare '--' is not a flag" trace_analyze --
expect_tool_error "--top expects an unsigned integer, got 'abc'" \
  trace_analyze x.jsonl --top abc
expect_tool_error '--threshold must be non-negative' bench_diff d d \
  --threshold -1
expect_tool_error "--threshold expects a finite number, got 'x'" \
  bench_diff d d --threshold x
expect_tool_error '--verbose is given more than once' metrics_check f \
  --verbose --verbose
# hybrid --adaptive takes --stats-cap like the static hybrid (it used to
# exit 2 naming the flag).
build/tools/vodbcast hybrid --adaptive --horizon 120 --stats-cap 4096 \
  > /dev/null
# A failed write must fail too, not report the file as written.
cli_rc=0
build/tools/vodbcast simulate --horizon 10 --metrics-out /dev/full \
  > /dev/null 2> "$om_dir/cli_err.txt" || cli_rc=$?
if [[ $cli_rc -ne 1 ]] || ! grep -q -- '/dev/full' "$om_dir/cli_err.txt" \
    || grep -q 'written' "$om_dir/cli_err.txt"; then
  echo "cli strictness: expected exit 1 naming /dev/full, got $cli_rc:" >&2
  cat "$om_dir/cli_err.txt" >&2
  exit 1
fi

echo "== bench suite (quick) + self-diff =="
suite_dir=$(mktemp -d)
trap 'rm -rf "$om_dir" "$suite_dir"' EXIT
scripts/run_bench_suite.sh --quick --out "$suite_dir"
build/tools/bench_diff "$suite_dir" "$suite_dir"
# Every result names the checked-out commit: the build re-configures when
# HEAD moves, so a commit on top of a configured tree cannot leave a stale
# stamp behind.
want_sha=${VODBCAST_GIT_SHA:-$(git rev-parse --short=12 HEAD 2> /dev/null \
  || echo unknown)}
for result in "$suite_dir"/BENCH_*.json; do
  if ! grep -qF "\"git_sha\":\"$want_sha\"" "$result"; then
    echo "bench provenance: $(basename "$result") names" \
         "$(grep -o '"git_sha":"[^"]*"' "$result"), not $want_sha" >&2
    exit 1
  fi
done

if [[ $perf_gate -eq 1 ]]; then
  echo "== perf gate: committed trajectory vs fresh A/B pair =="
  run_a="$suite_dir/a"
  run_b="$suite_dir/b"
  scripts/run_bench_suite.sh --out "$run_a"
  scripts/run_bench_suite.sh --out "$run_b"
  echo "-- noise floor (A vs B, same build, informational) --"
  build/tools/bench_diff "$run_a" "$run_b" --threshold "$perf_threshold" || \
    echo "perf gate: WARNING — machine noise exceeds the threshold;" \
         "the gate below may be unreliable"
  echo "-- gate (committed root vs fresh run) --"
  build/tools/bench_diff . "$run_a" --threshold "$perf_threshold"
fi

echo "verify_all: OK"
