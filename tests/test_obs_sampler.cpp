// obs::Sampler — bounded time-series capture along the simulation clock.
#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"
#include "util/json.hpp"

namespace vodbcast::obs {
namespace {

Sampler::Options opts(double interval, std::size_t max_samples) {
  Sampler::Options o;
  o.interval_min = interval;
  o.max_samples = max_samples;
  return o;
}

TEST(SamplerTest, EmitsOneRowPerTickIncludingTimeZero) {
  Sampler sampler(opts(1.0, 100));
  double depth = 0.0;
  (void)sampler.register_probe("queue_depth", [&depth] { return depth; });
  depth = 5.0;
  sampler.advance(0.5);  // crosses t=0
  depth = 7.0;
  sampler.advance(2.3);  // crosses t=1, t=2
  const auto rows = sampler.samples();
  ASSERT_EQ(rows.size(), 3U);
  EXPECT_DOUBLE_EQ(rows[0].t, 0.0);
  EXPECT_DOUBLE_EQ(rows[1].t, 1.0);
  EXPECT_DOUBLE_EQ(rows[2].t, 2.0);
  EXPECT_DOUBLE_EQ(rows[0].series[0].second, 5.0);
  // Ticks 1 and 2 both read the probe as of the advance that crossed them.
  EXPECT_DOUBLE_EQ(rows[2].series[0].second, 7.0);
}

TEST(SamplerTest, AdvanceIsMonotonicNoDuplicateTicks) {
  Sampler sampler(opts(1.0, 100));
  (void)sampler.register_probe("x", [] { return 1.0; });
  sampler.advance(3.0);
  sampler.advance(3.0);  // same time: no new rows
  sampler.advance(2.0);  // going backwards: no new rows
  EXPECT_EQ(sampler.size(), 4U);  // t = 0,1,2,3
}

TEST(SamplerTest, RingBoundsMemoryAndCountsDrops) {
  Sampler sampler(opts(1.0, 4));
  (void)sampler.register_probe("t", [] { return 0.0; });
  sampler.advance(9.0);  // ticks 0..9 = 10 rows through a 4-row ring
  EXPECT_EQ(sampler.size(), 4U);
  EXPECT_EQ(sampler.capacity(), 4U);
  EXPECT_EQ(sampler.dropped() + sampler.size(), 10U);
  // Oldest-first ordering with the newest rows retained.
  const auto rows = sampler.samples();
  ASSERT_EQ(rows.size(), 4U);
  EXPECT_DOUBLE_EQ(rows.front().t, 6.0);
  EXPECT_DOUBLE_EQ(rows.back().t, 9.0);
}

TEST(SamplerTest, HugeJumpSkipsLeadingTicksBounded) {
  Sampler sampler(opts(0.001, 8));
  (void)sampler.register_probe("x", [] { return 1.0; });
  sampler.advance(1e7);  // ~1e10 ticks must not allocate or loop that many
  EXPECT_LE(sampler.size(), 8U);
  EXPECT_GE(sampler.size(), 7U);  // float rounding may cede one tick
  EXPECT_GT(sampler.dropped(), 0U);
}

TEST(SamplerTest, ProbeChurnIsSafePerRow) {
  Sampler sampler(opts(1.0, 100));
  const auto id = sampler.register_probe("a", [] { return 1.0; });
  sampler.advance(0.0);
  sampler.unregister_probe(id);
  (void)sampler.register_probe("b", [] { return 2.0; });
  sampler.advance(1.0);
  const auto rows = sampler.samples();
  ASSERT_EQ(rows.size(), 2U);
  ASSERT_EQ(rows[0].series.size(), 1U);
  EXPECT_EQ(rows[0].series[0].first, "a");
  ASSERT_EQ(rows[1].series.size(), 1U);
  EXPECT_EQ(rows[1].series[0].first, "b");
}

TEST(SamplerTest, ToJsonlParsesBack) {
  Sampler sampler(opts(2.0, 16));
  (void)sampler.register_probe("batching.queue_depth", [] { return 4.0; });
  sampler.advance(5.0);
  const auto rows = util::json::parse_jsonl(sampler.to_jsonl());
  ASSERT_EQ(rows.size(), 3U);  // t = 0, 2, 4
  EXPECT_DOUBLE_EQ(rows[1].at("t").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(
      rows[1].at("series").at("batching.queue_depth").as_number(), 4.0);
}

TEST(SamplerTest, ToJsonlQuotesProbeNames) {
  Sampler sampler(opts(1.0, 4));
  (void)sampler.register_probe("odd \"name\"\t", [] { return 1.5; });
  sampler.advance(0.5);
  const auto rows = util::json::parse_jsonl(sampler.to_jsonl());
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_DOUBLE_EQ(rows[0].at("series").at("odd \"name\"\t").as_number(),
                   1.5);
}

TEST(SamplerTest, SampleNowIgnoresGrid) {
  Sampler sampler(opts(10.0, 16));
  (void)sampler.register_probe("x", [] { return 3.0; });
  sampler.sample_now(0.7);
  ASSERT_EQ(sampler.size(), 1U);
  EXPECT_DOUBLE_EQ(sampler.samples()[0].t, 0.7);
}

TEST(SamplerTest, InvalidOptionsContractCheck) {
  EXPECT_THROW(Sampler(opts(0.0, 16)), util::ContractViolation);
  EXPECT_THROW(Sampler(opts(1.0, 0)), util::ContractViolation);
}

TEST(ProbeScopeTest, NullSamplerIsANoOp) {
  ProbeScope probes(nullptr);
  probes.add("x", [] { return 1.0; });
  probes.advance(100.0);
  EXPECT_FALSE(probes.attached());
}

TEST(ProbeScopeTest, UnregistersOnDestruction) {
  Sampler sampler(opts(1.0, 16));
  {
    ProbeScope probes(&sampler);
    probes.add("scoped", [] { return 1.0; });
    EXPECT_EQ(sampler.probe_count(), 1U);
    probes.advance(0.0);
  }
  EXPECT_EQ(sampler.probe_count(), 0U);
  sampler.advance(1.0);  // after the scope died: rows carry no series
  const auto rows = sampler.samples();
  ASSERT_EQ(rows.size(), 2U);
  EXPECT_EQ(rows[1].series.size(), 0U);
}

TEST(SamplerTest, ClearResetsRowsAndClock) {
  Sampler sampler(opts(1.0, 8));
  (void)sampler.register_probe("x", [] { return 1.0; });
  sampler.advance(3.0);
  sampler.clear();
  EXPECT_EQ(sampler.size(), 0U);
  EXPECT_EQ(sampler.recorded(), 0U);
  sampler.advance(0.0);
  EXPECT_EQ(sampler.size(), 1U);  // t=0 emits again after clear
}

}  // namespace
}  // namespace vodbcast::obs
