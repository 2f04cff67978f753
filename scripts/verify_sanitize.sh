#!/usr/bin/env bash
# Sanitizer build-and-test sweep, two passes in separate build trees so the
# regular tier-1 build stays untouched:
#   build-asan  ASan+UBSan (with float-cast-overflow, see CMakeLists.txt)
#               over the observability subsystem, simulator, event engine,
#               batching server, net reassembly/loss paths, the
#               fault-injection/recovery layer, the adaptive control plane,
#               the metro federation, the client reception planner
#               with VCR pause/rejoin and the transition-local accounting,
#               the packet client and reassembler fuzz, the argument
#               parser, the workload generators and their feed filters,
#               the hybrid split, the engine report pins (whose
#               filters capture locals by reference), the broadcast
#               server's tune-in index (its own offset arithmetic, checked
#               against every scheme's plan) and the paper-number and
#               follow-on phase sweeps (worst_case_over_phases runs
#               client::plan_summary's unsigned time arithmetic);
#   build-tsan  TSan over the TaskPool and its parallel adopters, including
#               the replication driver behind simulate_replicated,
#               simulate_adaptive_replicated and
#               simulate_federation_replicated (test_regressions pins them
#               on a pool) and one plan cache per replication on 3- and
#               4-thread pools (test_plan_cache), and over the Registry
#               and its families (threads racing on one quantile sketch
#               while its counter window grows, threads racing to the
#               sketch boundary table's first use, and unlabeled, labeled
#               and snapshot lookups racing through the family locks) —
#               the data races serial ctest cannot see.
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
    test_fault test_metro test_plan_cache test_stats test_reception_plan \
    test_vcr test_transition_local test_reception_properties test_fuzz \
    test_packet_client test_util_args test_workload test_hybrid \
    test_regressions test_broadcast_server test_scheme_consistency \
    test_paper_numbers test_followons

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
  ./build-asan/tests/test_reception_plan
  ./build-asan/tests/test_vcr
  ./build-asan/tests/test_transition_local
  ./build-asan/tests/test_reception_properties
  ./build-asan/tests/test_fuzz
  ./build-asan/tests/test_packet_client
  ./build-asan/tests/test_util_args
  ./build-asan/tests/test_workload
  ./build-asan/tests/test_hybrid
  ./build-asan/tests/test_regressions
  ./build-asan/tests/test_broadcast_server
  ./build-asan/tests/test_scheme_consistency
  ./build-asan/tests/test_paper_numbers
  ./build-asan/tests/test_followons
fi

if [[ $mode == all || $mode == thread ]]; then
  cmake -B build-tsan -S . -DVODBCAST_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)" \
    --target test_task_pool test_parallel test_simulator test_ctrl \
    test_metro test_obs_registry test_obs_family test_obs_openmetrics \
    test_obs_sketch test_regressions test_plan_cache

  ./build-tsan/tests/test_task_pool
  ./build-tsan/tests/test_parallel
  ./build-tsan/tests/test_simulator
  ./build-tsan/tests/test_ctrl
  ./build-tsan/tests/test_metro
  ./build-tsan/tests/test_obs_registry
  ./build-tsan/tests/test_obs_family
  ./build-tsan/tests/test_obs_openmetrics
  # Alone first, so its threads race the sketch's boundary table to its
  # first use (a thread-safe static initializer) in a fresh process.
  ./build-tsan/tests/test_obs_sketch \
    --gtest_filter=BucketBoundsTest.ThreadsRaceToFirstUse
  ./build-tsan/tests/test_obs_sketch
  ./build-tsan/tests/test_regressions
  ./build-tsan/tests/test_plan_cache
fi

echo "sanitize verify ($mode): OK"
