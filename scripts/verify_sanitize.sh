#!/usr/bin/env bash
# Sanitizer build-and-test sweep, two passes in separate build trees so the
# regular tier-1 build stays untouched:
#   build-asan  ASan+UBSan over the observability subsystem, simulator,
#               event-engine slab allocator, batching server, net
#               reassembly/loss paths, the fault-injection/recovery layer,
#               the adaptive control plane and the metro federation;
#   build-tsan  TSan over the TaskPool and its parallel adopters, including
#               the replication driver behind simulate_replicated,
#               simulate_adaptive_replicated and
#               simulate_federation_replicated (test_regressions pins them
#               on a pool), and over the Registry and its families
#               (threads racing on one quantile sketch while its counter
#               window grows, and unlabeled, labeled and snapshot lookups
#               racing through the family locks) — the data races serial
#               ctest cannot see.
#
#   scripts/verify_sanitize.sh [all|asan|thread]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-all}
case "$mode" in
  all|asan|thread) ;;
  *)
    echo "usage: $0 [all|asan|thread]" >&2
    exit 2
    ;;
esac

if [[ $mode == all || $mode == asan ]]; then
  cmake -B build-asan -S . -DVODBCAST_SANITIZE=ON
  cmake --build build-asan -j "$(nproc)" \
    --target test_obs_registry test_obs_trace test_obs_span \
    test_obs_sampler test_obs_family test_obs_sketch test_obs_openmetrics \
    test_util_json test_bench_harness test_simulator test_task_pool \
    test_parallel test_event_queue test_batching test_net test_ctrl \
    test_fault test_metro test_plan_cache test_stats

  ./build-asan/tests/test_obs_registry
  ./build-asan/tests/test_obs_trace
  ./build-asan/tests/test_obs_span
  ./build-asan/tests/test_obs_sampler
  ./build-asan/tests/test_obs_family
  ./build-asan/tests/test_obs_sketch
  ./build-asan/tests/test_obs_openmetrics
  ./build-asan/tests/test_util_json
  ./build-asan/tests/test_bench_harness
  ./build-asan/tests/test_simulator
  ./build-asan/tests/test_task_pool
  ./build-asan/tests/test_parallel
  ./build-asan/tests/test_event_queue
  ./build-asan/tests/test_batching
  ./build-asan/tests/test_net
  ./build-asan/tests/test_ctrl
  ./build-asan/tests/test_fault
  ./build-asan/tests/test_metro
  ./build-asan/tests/test_plan_cache
  ./build-asan/tests/test_stats
fi

if [[ $mode == all || $mode == thread ]]; then
  cmake -B build-tsan -S . -DVODBCAST_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" \
    --target test_task_pool test_parallel test_simulator test_ctrl \
    test_metro test_obs_registry test_obs_family test_obs_openmetrics \
    test_obs_sketch test_regressions

  ./build-tsan/tests/test_task_pool
  ./build-tsan/tests/test_parallel
  ./build-tsan/tests/test_simulator
  ./build-tsan/tests/test_ctrl
  ./build-tsan/tests/test_metro
  ./build-tsan/tests/test_obs_registry
  ./build-tsan/tests/test_obs_family
  ./build-tsan/tests/test_obs_openmetrics
  ./build-tsan/tests/test_obs_sketch
  ./build-tsan/tests/test_regressions
fi

echo "sanitize verify ($mode): OK"
