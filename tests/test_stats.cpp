#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace vodbcast::sim {
namespace {

TEST(DistributionTest, BasicMoments) {
  Distribution d;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) {
    d.add(x);
  }
  EXPECT_EQ(d.count(), 4U);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
  EXPECT_NEAR(d.stddev(), 1.1180, 1e-4);
}

TEST(DistributionTest, Quantiles) {
  // Interpolated (util::interpolated_quantile): rank q*(n-1) between order
  // statistics — the same definition the bench timing stats use.
  Distribution d;
  for (int i = 1; i <= 100; ++i) {
    d.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 50.5);
  EXPECT_NEAR(d.quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
}

TEST(DistributionTest, QuantileAfterLateAdd) {
  Distribution d;
  d.add(10.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 10.0);
  d.add(0.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(d.min(), 0.0);
}

TEST(DistributionTest, EmptyGuards) {
  Distribution d;
  EXPECT_TRUE(d.empty());
  EXPECT_THROW((void)d.mean(), util::ContractViolation);
  EXPECT_THROW((void)d.quantile(0.5), util::ContractViolation);
  EXPECT_EQ(d.summary(), "n=0");
}

TEST(DistributionTest, RejectsBadQuantile) {
  Distribution d;
  d.add(1.0);
  EXPECT_THROW((void)d.quantile(-0.1), util::ContractViolation);
  EXPECT_THROW((void)d.quantile(1.1), util::ContractViolation);
}

TEST(DistributionTest, RejectsNonFiniteSamples) {
  // Exact and folded alike: NaN and +/-inf never enter the moments or the
  // sketch.
  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}}) {
    Distribution d;
    d.set_sample_cap(cap);
    d.add(1.0);
    d.add(2.0);
    EXPECT_EQ(d.folded(), cap != 0);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      EXPECT_THROW(d.add(bad), util::ContractViolation) << "cap=" << cap;
    }
    EXPECT_EQ(d.count(), 2U);
    EXPECT_DOUBLE_EQ(d.max(), 2.0);
    EXPECT_DOUBLE_EQ(d.mean(), 1.5);
  }
}

TEST(DistributionTest, StddevSingleSampleIsExactlyZero) {
  Distribution d;
  d.add(1e9);  // large magnitude would stress the sum-of-squares identity
  EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(DistributionTest, StddevSurvivesLargeMean) {
  // The sum-of-squares identity collapses here: sum_sq/n and mean^2 are both
  // ~1e18, and their true difference (1.0) is below one ulp at that
  // magnitude, so the old one-pass form returned 0. Two-pass stays exact.
  Distribution d;
  d.add(1e9 - 1.0);
  d.add(1e9 + 1.0);
  EXPECT_DOUBLE_EQ(d.mean(), 1e9);
  EXPECT_DOUBLE_EQ(d.stddev(), 1.0);
}

TEST(DistributionTest, SamplesExposeAddOrder) {
  Distribution d;
  d.add(3.0);
  d.add(1.0);
  d.add(2.0);
  ASSERT_EQ(d.samples().size(), 3U);
  EXPECT_DOUBLE_EQ(d.samples()[0], 3.0);
  EXPECT_DOUBLE_EQ(d.samples()[1], 1.0);
  EXPECT_DOUBLE_EQ(d.samples()[2], 2.0);
}

TEST(DistributionTest, MergeCombinesSamplesAndMoments) {
  Distribution a;
  a.add(1.0);
  a.add(2.0);
  Distribution b;
  b.add(3.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4U);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_NEAR(a.stddev(), 1.1180, 1e-4);
  // The source is untouched.
  EXPECT_EQ(b.count(), 2U);
}

TEST(DistributionTest, MergeIntoEmpty) {
  Distribution a;
  Distribution b;
  b.add(7.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1U);
  EXPECT_DOUBLE_EQ(a.mean(), 7.0);
  a.merge(Distribution{});  // merging an empty source is a no-op
  EXPECT_EQ(a.count(), 1U);
}

// A self-merge inserted the sample store into itself while exact, and threw
// from the sketch merge after doubling count and sum once folded. It is
// rejected up front and leaves the distribution as it was, in both modes.
TEST(DistributionTest, RejectsSelfMerge) {
  for (const std::size_t cap : {std::size_t{0}, std::size_t{2}}) {
    Distribution d;
    d.set_sample_cap(cap);
    for (const double x : {1.0, 2.0, 4.0}) {
      d.add(x);
    }
    ASSERT_EQ(d.folded(), cap != 0);
    EXPECT_THROW(d.merge(d), util::ContractViolation) << "cap " << cap;
    EXPECT_EQ(d.count(), 3U);
    EXPECT_DOUBLE_EQ(d.mean(), 7.0 / 3.0);
    EXPECT_EQ(d.samples().size(), cap == 0 ? 3U : 0U);
    EXPECT_EQ(d.samples_folded(), cap == 0 ? 0U : 3U);
  }
}

TEST(DistributionTest, HistogramBinsSpanMinToMax) {
  Distribution d;
  for (int i = 0; i < 10; ++i) {
    d.add(static_cast<double>(i));  // 0..9
  }
  const auto bins = d.histogram(3);
  EXPECT_DOUBLE_EQ(bins.lo, 0.0);
  EXPECT_DOUBLE_EQ(bins.hi, 9.0);
  ASSERT_EQ(bins.counts.size(), 3U);
  // Width 3: [0,3) -> 0,1,2; [3,6) -> 3,4,5; [6,9] -> 6,7,8,9.
  EXPECT_EQ(bins.counts[0], 3U);
  EXPECT_EQ(bins.counts[1], 3U);
  EXPECT_EQ(bins.counts[2], 4U);
}

TEST(DistributionTest, HistogramDegenerateRange) {
  Distribution d;
  d.add(5.0);
  d.add(5.0);
  const auto bins = d.histogram(4);
  EXPECT_EQ(bins.counts[0], 2U);  // zero-width range lands in bin 0
  EXPECT_THROW((void)Distribution{}.histogram(2), util::ContractViolation);
  EXPECT_THROW((void)d.histogram(0), util::ContractViolation);
}

TEST(DistributionTest, SummaryMentionsCount) {
  Distribution d;
  d.add(2.0);
  d.add(4.0);
  const auto s = d.summary();
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("mean=3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming (sample-capped) mode

TEST(StreamingDistributionTest, UnderCapIsBitIdenticalToExact) {
  Distribution exact;
  Distribution capped;
  capped.set_sample_cap(100);
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>((i * 37) % 100);
    exact.add(x);
    capped.add(x);
  }
  EXPECT_FALSE(capped.folded());
  EXPECT_EQ(capped.samples_folded(), 0U);
  EXPECT_EQ(capped.samples(), exact.samples());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(capped.quantile(q), exact.quantile(q));
  }
  EXPECT_DOUBLE_EQ(capped.stddev(), exact.stddev());
}

TEST(StreamingDistributionTest, CrossingCapFoldsAndFreesSamples) {
  Distribution d;
  d.set_sample_cap(50);
  for (int i = 1; i <= 500; ++i) {
    d.add(static_cast<double>(i));
  }
  EXPECT_TRUE(d.folded());
  EXPECT_TRUE(d.samples().empty());
  EXPECT_EQ(d.samples_folded(), 500U);
  // Count, sum moments and extrema stay exact after the fold.
  EXPECT_EQ(d.count(), 500U);
  EXPECT_DOUBLE_EQ(d.mean(), 250.5);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 500.0);
  // Sketch-backed quantiles within the sketch's 1% relative accuracy.
  EXPECT_NEAR(d.quantile(0.5), 250.5, 0.02 * 250.5);
  EXPECT_NEAR(d.quantile(0.99), 495.05, 0.02 * 495.05);
  // Streaming stddev: Welford matches the exact value closely.
  EXPECT_NEAR(d.stddev(), 144.337, 0.01);
  // Folded distributions refuse raw-sample queries and flag the summary.
  EXPECT_THROW((void)d.histogram(4), util::ContractViolation);
  EXPECT_NE(d.summary().find("folded=500"), std::string::npos);
}

TEST(StreamingDistributionTest, RetainedBytesReflectOneCopy) {
  // The sorted_ duplication fix: quantile() sorts into a scratch freed on
  // return, so the high-water retained storage is exactly the sample
  // vector — querying quantiles must not grow it.
  Distribution d;
  for (int i = 0; i < 1000; ++i) {
    d.add(static_cast<double>((i * 7919) % 1000));
  }
  const std::size_t before = d.retained_bytes();
  EXPECT_GE(before, 1000 * sizeof(double));
  (void)d.quantile(0.5);
  (void)d.quantile(0.99);
  (void)d.summary();
  EXPECT_EQ(d.retained_bytes(), before);
  // Folding swaps O(n) samples for O(buckets) sketch state — visible once
  // the sample count dwarfs the sketch's bucket budget.
  Distribution big;
  for (int i = 0; i < 50000; ++i) {
    big.add(static_cast<double>(i % 977));
  }
  const std::size_t unfolded = big.retained_bytes();
  big.set_sample_cap(100);
  EXPECT_TRUE(big.folded());
  EXPECT_LT(big.retained_bytes(), unfolded / 4);
  // Once folded, the retained bytes are exactly the sketch's counter array:
  // the same samples in the same order grow a standalone sketch's window
  // identically. Values 1..976 occupy bucket indices 0..345 at a = 0.01, so
  // the window holds at least those 346 counters, and spare room at most
  // doubles it (plus the minimum spare on each side).
  obs::QuantileSketch same;
  for (int i = 0; i < 50000; ++i) {
    same.observe(static_cast<double>(i % 977));
  }
  EXPECT_EQ(big.retained_bytes(), same.heap_bytes());
  EXPECT_GE(big.retained_bytes(), 346 * sizeof(std::uint64_t));
  EXPECT_LE(big.retained_bytes(), (2 * 346 + 64) * sizeof(std::uint64_t));
}

TEST(StreamingDistributionTest, QuantileLawUnchangedByScratchSort) {
  // Pinned against util::interpolated_quantile: rank q*(n-1) interpolation,
  // same values the pre-rewrite sorted_ cache produced.
  Distribution d;
  for (int i = 100; i >= 1; --i) {
    d.add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 50.5);
  EXPECT_NEAR(d.quantile(0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
  // Re-query after another add: results track the new sample set.
  d.add(1000.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 1000.0);
}

TEST(StreamingDistributionTest, MergePastCapFoldsBothSides) {
  Distribution a;
  a.set_sample_cap(6);
  Distribution b;
  for (int i = 1; i <= 4; ++i) {
    a.add(static_cast<double>(i));        // 1..4
    b.add(static_cast<double>(i + 4));    // 5..8
  }
  a.merge(b);  // 8 retained > cap 6: fold
  EXPECT_TRUE(a.folded());
  EXPECT_EQ(a.count(), 8U);
  EXPECT_DOUBLE_EQ(a.mean(), 4.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  EXPECT_EQ(a.samples_folded(), 8U);
  // b is untouched and still exact.
  EXPECT_FALSE(b.folded());
  EXPECT_EQ(b.samples().size(), 4U);
}

TEST(StreamingDistributionTest, MergeFoldedIntoExactAndViceVersa) {
  Distribution folded;
  folded.set_sample_cap(2);
  for (int i = 1; i <= 10; ++i) {
    folded.add(static_cast<double>(i));
  }
  ASSERT_TRUE(folded.folded());
  Distribution exact;
  exact.add(100.0);
  exact.merge(folded);
  EXPECT_TRUE(exact.folded());
  EXPECT_EQ(exact.count(), 11U);
  EXPECT_DOUBLE_EQ(exact.max(), 100.0);
  EXPECT_DOUBLE_EQ(exact.mean(), 155.0 / 11.0);

  Distribution other;
  other.set_sample_cap(2);
  other.add(0.5);
  other.add(0.25);
  other.add(0.75);  // folds
  ASSERT_TRUE(other.folded());
  other.merge(folded);  // sketch-to-sketch, bucket-wise
  EXPECT_EQ(other.count(), 13U);
  EXPECT_DOUBLE_EQ(other.min(), 0.25);
  EXPECT_DOUBLE_EQ(other.max(), 10.0);
}

TEST(StreamingDistributionTest, MergeOrderIsDeterministic) {
  // Shard-merge determinism: merging the same per-shard distributions in
  // the same order must give bit-identical state — the parallel
  // replication contract, now including folded mode.
  const auto build = [] {
    std::vector<Distribution> shards(4);
    for (int s = 0; s < 4; ++s) {
      shards[s].set_sample_cap(8);
      for (int i = 0; i < 32; ++i) {
        shards[s].add(static_cast<double>((s * 1009 + i * 31) % 97));
      }
    }
    Distribution merged;
    merged.set_sample_cap(8);
    for (const auto& shard : shards) {
      merged.merge(shard);
    }
    return merged;
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.stddev(), b.stddev());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.quantile(0.99), b.quantile(0.99));
}

TEST(StreamingDistributionTest, CopyOfFoldedDistributionIsDeep) {
  Distribution d;
  d.set_sample_cap(2);
  for (int i = 1; i <= 8; ++i) {
    d.add(static_cast<double>(i));
  }
  ASSERT_TRUE(d.folded());
  const auto buckets = d.sketch()->buckets();
  Distribution copy = d;
  EXPECT_TRUE(copy.folded());
  EXPECT_EQ(copy.count(), 8U);
  EXPECT_EQ(copy.sketch()->buckets(), buckets);
  EXPECT_DOUBLE_EQ(copy.quantile(0.5), d.quantile(0.5));
  // Must not leak into the original, not even when the copy's counter
  // window grows at both ends or its zero bucket fills.
  for (const double v : {1000.0, 1e-6, 0.0}) {
    copy.add(v);
  }
  EXPECT_EQ(d.count(), 8U);
  EXPECT_DOUBLE_EQ(d.max(), 8.0);
  EXPECT_EQ(d.sketch()->buckets(), buckets);
  EXPECT_EQ(d.sketch()->zero_count(), 0U);
  Distribution assigned;
  assigned.add(3.0);
  assigned = d;
  EXPECT_EQ(assigned.count(), 8U);
  EXPECT_DOUBLE_EQ(assigned.quantile(0.99), d.quantile(0.99));
  // Nor does the original reach into its copies.
  d.add(1e9);
  EXPECT_EQ(assigned.sketch()->buckets(), buckets);
  EXPECT_EQ(copy.count(), 11U);
  EXPECT_EQ(copy.sketch()->zero_count(), 1U);
}

TEST(StreamingDistributionTest, FoldedBucketsEqualALockedSketch) {
  // The fold holds the sketch's bucket core without the Registry sketch's
  // lock; fed the same samples in the same order, both hold the same state.
  // The samples span about 1500 buckets, so the 512-bucket budget collapses
  // the low end many times, and every 97th sample lands in the zero bucket.
  Distribution d;
  d.set_sample_cap(64);
  obs::QuantileSketch locked;
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double v =
        i % 97 == 0 ? 0.0 : std::exp(30.0 * rng.next_double() - 15.0);
    d.add(v);
    locked.observe(v);
  }
  ASSERT_TRUE(d.folded());
  const obs::SketchCore* core = d.sketch();
  ASSERT_NE(core, nullptr);
  EXPECT_GT(core->collapsed(), 0U);
  EXPECT_EQ(core->buckets(), locked.buckets());
  EXPECT_EQ(core->zero_count(), locked.zero_count());
  EXPECT_EQ(core->count(), locked.count());
  EXPECT_EQ(core->collapsed(), locked.collapsed());
  EXPECT_EQ(core->heap_bytes(), locked.heap_bytes());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(d.quantile(q), locked.quantile(q)) << q;
  }
}

TEST(StreamingDistributionTest, LateCapOnOversizedSetFoldsImmediately) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) {
    d.add(static_cast<double>(i));
  }
  d.set_sample_cap(10);
  EXPECT_TRUE(d.folded());
  EXPECT_TRUE(d.samples().empty());
  EXPECT_EQ(d.count(), 100U);
  EXPECT_DOUBLE_EQ(d.mean(), 50.5);
}

// A distribution with eager moments: every add updates Welford's moments,
// and merge combines them with Chan's formula. Distribution defers the
// moments while exact, and must reproduce this arithmetic bit for bit.
struct EagerReference {
  std::vector<double> samples;
  std::size_t cap = 0;
  std::optional<obs::SketchCore> sketch;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double welford_mean = 0.0;
  double welford_m2 = 0.0;

  void add(double sample) {
    min = count == 0 ? sample : std::min(min, sample);
    max = count == 0 ? sample : std::max(max, sample);
    ++count;
    sum += sample;
    const double delta = sample - welford_mean;
    welford_mean += delta / static_cast<double>(count);
    welford_m2 += delta * (sample - welford_mean);
    if (sketch.has_value()) {
      sketch->observe(sample);
      return;
    }
    if (cap != 0 && samples.size() >= cap) {
      fold();
      sketch->observe(sample);
      return;
    }
    samples.push_back(sample);
  }

  void fold() {
    if (!sketch.has_value()) {
      sketch.emplace();
    }
    for (const double s : samples) {
      sketch->observe(s);
    }
    samples.clear();
  }

  void merge(const EagerReference& other) {
    if (other.count == 0) {
      return;
    }
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    const double na = static_cast<double>(count);
    const double nb = static_cast<double>(other.count);
    const double delta = other.welford_mean - welford_mean;
    welford_mean += delta * nb / (na + nb);
    welford_m2 += other.welford_m2 + delta * delta * na * nb / (na + nb);
    count += other.count;
    sum += other.sum;
    if (!sketch.has_value() && !other.sketch.has_value() &&
        (cap == 0 || samples.size() + other.samples.size() <= cap)) {
      samples.insert(samples.end(), other.samples.begin(),
                     other.samples.end());
      return;
    }
    fold();
    for (const double s : other.samples) {
      sketch->observe(s);
    }
    if (other.sketch.has_value()) {
      sketch->merge_from(*other.sketch);
    }
  }

  void set_sample_cap(std::size_t c) {
    cap = c;
    if (cap != 0 && samples.size() > cap) {
      fold();
    }
  }

  [[nodiscard]] double stddev() const {
    if (count < 2) {
      return 0.0;
    }
    if (sketch.has_value()) {
      return std::sqrt(welford_m2 / static_cast<double>(count));
    }
    const double m = sum / static_cast<double>(count);
    double acc = 0.0;
    for (const double s : samples) {
      acc += (s - m) * (s - m);
    }
    return std::sqrt(acc / static_cast<double>(count));
  }

  [[nodiscard]] double quantile(double q) const {
    if (sketch.has_value()) {
      return sketch->quantile(q);
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    return util::interpolated_quantile(sorted, q);
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_matches(const Distribution& d, const EagerReference& e,
                    bool quantiles, const std::string& where) {
  ASSERT_EQ(d.count(), e.count) << where;
  ASSERT_EQ(d.folded(), e.sketch.has_value()) << where;
  EXPECT_EQ(d.samples_folded(), e.sketch.has_value() ? e.sketch->count() : 0)
      << where;
  ASSERT_EQ(d.samples().size(), e.samples.size()) << where;
  for (std::size_t i = 0; i < e.samples.size(); ++i) {
    ASSERT_EQ(bits(d.samples()[i]), bits(e.samples[i])) << where << " #" << i;
  }
  if (e.sketch.has_value()) {
    EXPECT_EQ(d.sketch()->buckets(), e.sketch->buckets()) << where;
  }
  if (e.count == 0) {
    return;
  }
  EXPECT_EQ(bits(d.mean()), bits(e.sum / static_cast<double>(e.count)))
      << where;
  EXPECT_EQ(bits(d.min()), bits(e.min)) << where;
  EXPECT_EQ(bits(d.max()), bits(e.max)) << where;
  EXPECT_EQ(bits(d.stddev()), bits(e.stddev())) << where;
  if (quantiles) {
    for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
      EXPECT_EQ(bits(d.quantile(q)), bits(e.quantile(q))) << where << " q=" << q;
    }
  }
}

// Samples whose moments round differently in every step: plain values,
// an adversarial large mean with a tiny spread, a wide log range and zeros.
double draw_sample(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return 100.0 * rng.next_double();
    case 1:
      return 1e9 + 1e-3 * rng.next_double();
    case 2:
      return std::exp(20.0 * rng.next_double() - 10.0);
    default:
      return 0.0;
  }
}

TEST(DeferredMomentsTest, RandomOperationsMatchEagerArithmeticBitForBit) {
  // Random sequences over four distributions of every operation that can
  // reach the moments: adds, reserves, merges (exact and folded, either
  // side empty), caps that fold and caps that do not, copies that then
  // diverge, and resets. A sequence that folds reads the replayed moments
  // through stddev(); one that stays exact checks that nothing else moved.
  constexpr std::size_t kDists = 4;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    util::Rng rng(seed);
    std::array<Distribution, kDists> dists;
    std::array<EagerReference, kDists> refs;
    for (int step = 0; step < 120; ++step) {
      const auto i = static_cast<std::size_t>(rng.next_below(kDists));
      auto j = static_cast<std::size_t>(rng.next_below(kDists - 1));
      j += j >= i ? 1 : 0;  // another distribution
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step);
      switch (rng.next_below(10)) {
        case 0:
        case 1:
        case 2:
        case 3: {
          const auto burst = 1 + rng.next_below(12);
          for (std::uint64_t k = 0; k < burst; ++k) {
            const double x = draw_sample(rng);
            dists[i].add(x);
            refs[i].add(x);
          }
          break;
        }
        case 4:
          dists[i].reserve(static_cast<std::size_t>(rng.next_below(200)));
          break;
        case 5:
        case 6:
          dists[i].merge(dists[j]);
          refs[i].merge(refs[j]);
          expect_matches(dists[j], refs[j], false, where + " (source)");
          break;
        case 7: {
          // Below, at and above the retained count, or back to exact.
          const std::size_t size = dists[i].samples().size();
          const std::array<std::size_t, 5> caps{
              0, size > 1 ? size - 1 : 1, std::max<std::size_t>(size, 1),
              size + 1, 1 + static_cast<std::size_t>(rng.next_below(40))};
          const std::size_t cap = caps[rng.next_below(caps.size())];
          dists[i].set_sample_cap(cap);
          refs[i].set_sample_cap(cap);
          break;
        }
        case 8:
          dists[i] = dists[j];
          refs[i] = refs[j];
          break;
        default:
          dists[i] = Distribution{};
          refs[i] = EagerReference{};
          break;
      }
      expect_matches(dists[i], refs[i], false, where);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    for (std::size_t k = 0; k < kDists; ++k) {
      // Folding the survivors reads every pending moment.
      expect_matches(dists[k], refs[k], true,
                     "seed " + std::to_string(seed) + " end");
      dists[k].set_sample_cap(1);
      refs[k].set_sample_cap(1);
      expect_matches(dists[k], refs[k], true,
                     "seed " + std::to_string(seed) + " folded");
    }
  }
}

TEST(DeferredMomentsTest, ReserveClampsToTheCapAndIsANoOpOnceFolded) {
  Distribution exact;
  exact.reserve(1000);
  EXPECT_EQ(exact.samples().capacity(), 1000U);
  EXPECT_EQ(exact.retained_bytes(), 1000 * sizeof(double));
  for (int i = 0; i < 1000; ++i) {
    exact.add(static_cast<double>(i));
  }
  EXPECT_EQ(exact.samples().capacity(), 1000U);  // no regrowth

  Distribution capped;
  capped.set_sample_cap(10);
  capped.reserve(1000);
  EXPECT_EQ(capped.samples().capacity(), 10U);
  // The cap clamps before the ceiling does.
  capped.reserve(Distribution::kReserveCeiling + 1);
  EXPECT_EQ(capped.samples().capacity(), 10U);

  Distribution folded;
  folded.set_sample_cap(2);
  for (int i = 0; i < 3; ++i) {
    folded.add(static_cast<double>(i));
  }
  ASSERT_TRUE(folded.folded());
  const std::size_t bytes = folded.retained_bytes();
  folded.reserve(1000);
  EXPECT_EQ(folded.samples().capacity(), 0U);
  EXPECT_EQ(folded.retained_bytes(), bytes);

  // Past the ceiling the store grows as it would without a reserve.
  Distribution oversized;
  oversized.reserve(Distribution::kReserveCeiling + 1);
  EXPECT_EQ(oversized.samples().capacity(), 0U);
}

TEST(DeferredMomentsTest, ReservedStoreHoldsTheSameSamples) {
  Distribution reserved;
  reserved.reserve(500);
  Distribution grown;
  util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = draw_sample(rng);
    reserved.add(x);
    grown.add(x);
  }
  EXPECT_EQ(reserved.samples(), grown.samples());
  EXPECT_EQ(bits(reserved.stddev()), bits(grown.stddev()));
  reserved.set_sample_cap(100);
  grown.set_sample_cap(100);
  EXPECT_EQ(bits(reserved.stddev()), bits(grown.stddev()));
  EXPECT_EQ(reserved.sketch()->buckets(), grown.sketch()->buckets());
}

}  // namespace
}  // namespace vodbcast::sim
