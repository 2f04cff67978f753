// google-benchmark microbenchmarks for the substrates: packetization,
// reassembly, workload generation, batching simulation and the disk
// admission math.
#include <benchmark/benchmark.h>

#include "batching/scheduled_multicast.hpp"
#include "disk/disk_model.hpp"
#include "net/packetizer.hpp"
#include "net/reassembly.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

#include "harness/gbench_bridge.hpp"

namespace {

using namespace vodbcast;

const channel::PeriodicBroadcast kStream{
    .logical_channel = 0,
    .subchannel = 0,
    .video = 0,
    .segment = 1,
    .rate = core::MbitPerSec{1.5},
    .period = core::Minutes{8.0},
    .phase = core::Minutes{0.0},
    .transmission = core::Minutes{8.0},
};

void BM_Packetize(benchmark::State& state) {
  const core::Mbits mtu{static_cast<double>(state.range(0))};
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::packetize_transmission(kStream, index++, mtu));
  }
}
BENCHMARK(BM_Packetize)->Arg(5)->Arg(50);

void BM_ReassembleInOrder(benchmark::State& state) {
  const auto packets =
      net::packetize_transmission(kStream, 0, core::Mbits{10.0});
  for (auto _ : state) {
    net::SegmentReassembler reassembler(core::Mbits{720.0});
    for (const auto& p : packets) {
      reassembler.accept(p);
    }
    benchmark::DoNotOptimize(reassembler.complete());
  }
}
BENCHMARK(BM_ReassembleInOrder);

void BM_ZipfProbabilities(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::zipf_probabilities(n));
  }
}
BENCHMARK(BM_ZipfProbabilities)->Arg(100)->Arg(10000);

// One draw per iteration from catalogs of 20 titles (sb_metro's) and 100.
void BM_RequestGeneration(benchmark::State& state) {
  workload::RequestGenerator gen(
      workload::zipf_probabilities(static_cast<std::size_t>(state.range(0))),
      10.0, util::Rng(3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.next());
  }
}
BENCHMARK(BM_RequestGeneration)->Arg(20)->Arg(100);

// Each iteration draws its requests as it runs, so the time includes
// request generation.
void BM_ScheduledMulticast(benchmark::State& state) {
  const auto popularity = workload::zipf_probabilities(20);
  const batching::MqlPolicy policy;
  for (auto _ : state) {
    workload::RequestFeed requests(
        workload::RequestGenerator(popularity, 4.0, util::Rng(7)),
        core::Minutes{500.0});
    batching::MulticastConfig config;
    config.channels = 8;
    config.horizon = core::Minutes{600.0};
    benchmark::DoNotOptimize(
        batching::simulate_scheduled_multicast(policy, requests, 20,
                                               config));
  }
}
BENCHMARK(BM_ScheduledMulticast);

void BM_DiskAdmission(benchmark::State& state) {
  const auto spec = disk::DiskSpec::consumer_1997();
  const auto set = disk::client_stream_set(core::MbitPerSec{1.5}, 2,
                                           core::MbitPerSec{1.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk::min_round_seconds(spec, set));
  }
}
BENCHMARK(BM_DiskAdmission);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  vodbcast::bench::Session session("micro_substrates", argc, argv);
  return vodbcast::bench::run_gbench(session);
}
