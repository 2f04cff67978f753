#include "obs/quantile_sketch.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::obs {
namespace {

TEST(QuantileSketchTest, EmptySketchReportsZeros) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);
  EXPECT_EQ(s.bucket_count(), 0U);
}

TEST(QuantileSketchTest, RejectsBadOptions) {
  EXPECT_THROW(QuantileSketch({.relative_accuracy = 0.0}),
               util::ContractViolation);
  EXPECT_THROW(QuantileSketch({.relative_accuracy = 1.0}),
               util::ContractViolation);
  EXPECT_THROW(
      QuantileSketch({.relative_accuracy = 0.01, .max_buckets = 1}),
      util::ContractViolation);
}

// Known-answer test: with a = 1/3, gamma ~= 2, buckets are roughly
// (2^(i-1), 2^i]. Samples sit well inside their buckets (a boundary value
// like exactly 2.0 would be at the mercy of the last bit of log()).
TEST(QuantileSketchTest, KnownAnswerBucketIndices) {
  QuantileSketch s({.relative_accuracy = 1.0 / 3.0});
  EXPECT_NEAR(s.gamma(), 2.0, 1e-12);
  s.observe(1.0);  // log(1) = 0 exactly  -> index 0
  s.observe(1.4);  // (1, 2]              -> index 1
  s.observe(3.0);  // (2, 4]              -> index 2
  s.observe(3.5);  // (2, 4]              -> index 2
  s.observe(5.0);  // (4, 8]              -> index 3
  s.observe(0.2);  // (1/8, 1/4]          -> index -2
  const std::vector<std::pair<std::int32_t, std::uint64_t>> expected = {
      {-2, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 1}};
  EXPECT_EQ(s.buckets(), expected);
  EXPECT_EQ(s.count(), 6U);
  EXPECT_NEAR(s.sum(), 14.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 0.2);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(QuantileSketchTest, SingleSampleAllQuantilesAgree) {
  QuantileSketch s;
  s.observe(42.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 42.0, 42.0 * s.relative_accuracy());
  }
}

TEST(QuantileSketchTest, ZeroAndNegativeSamplesLandInZeroBucket) {
  QuantileSketch s;
  s.observe(0.0);
  s.observe(-3.0);
  s.observe(1e-12);
  EXPECT_EQ(s.zero_count(), 3U);
  EXPECT_EQ(s.bucket_count(), 0U);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.0);  // all mass is exactly zero
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
}

TEST(QuantileSketchTest, RejectsNonFiniteSamples) {
  // The bucket index of NaN or +/-inf is not an int32_t; the contract
  // rejects them before they touch any state.
  QuantileSketch s;
  s.observe(2.0);
  EXPECT_THROW(s.observe(std::numeric_limits<double>::quiet_NaN()),
               util::ContractViolation);
  EXPECT_THROW(s.observe(std::numeric_limits<double>::infinity()),
               util::ContractViolation);
  EXPECT_THROW(s.observe(-std::numeric_limits<double>::infinity()),
               util::ContractViolation);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_EQ(s.zero_count(), 0U);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
  EXPECT_NEAR(s.quantile(1.0), 2.0, 2.0 * s.relative_accuracy());
}

TEST(QuantileSketchTest, RejectsAccuracyTooFineForTheIndexType) {
  // ln(DBL_MAX) / ln(gamma) must fit an int32_t bucket index.
  EXPECT_THROW(QuantileSketch({.relative_accuracy = 1e-9}),
               util::ContractViolation);
  EXPECT_NO_THROW(QuantileSketch({.relative_accuracy = 1e-6}));
}

TEST(QuantileSketchTest, CounterArrayIsBoundedByTheFiniteIndexRange) {
  // The extremes of the trackable domain pin the window to its largest
  // size: index_of(1e-9) .. index_of(DBL_MAX), ~36.5k counters at a = 0.01.
  QuantileSketch s;
  EXPECT_EQ(s.heap_bytes(), 0U);
  s.observe(1.5);
  const std::size_t one = s.heap_bytes();
  EXPECT_GT(one, 0U);
  EXPECT_LE(one, 1024U);  // a fresh window is small
  s.observe(std::nextafter(QuantileSketch::kMinTrackable, 1.0));
  s.observe(DBL_MAX);
  const double log_gamma = std::log(s.gamma());
  const double counters =
      std::ceil(std::log(DBL_MAX) / log_gamma) -
      std::ceil(std::log(QuantileSketch::kMinTrackable) / log_gamma) + 1.0;
  EXPECT_NEAR(counters, 36525.0, 2.0);
  EXPECT_LE(static_cast<double>(s.heap_bytes()),
            counters * sizeof(std::uint64_t));
  EXPECT_LE(s.heap_bytes(), 300U * 1000U);
  EXPECT_EQ(s.bucket_count(), 3U);
}

TEST(QuantileSketchTest, RelativeErrorBoundAcrossSeeds) {
  // Property test: for random (log-uniform) samples, every reported
  // quantile stays within the advertised relative accuracy of the true
  // order statistic.
  for (const std::uint64_t seed : {1ULL, 7ULL, 1997ULL, 424242ULL}) {
    util::Rng rng(seed);
    QuantileSketch s({.relative_accuracy = 0.02});
    std::vector<double> samples;
    for (int i = 0; i < 4000; ++i) {
      // Spread over ~6 decades so no fixed-bin grid could cover it.
      const double v = std::exp(rng.next_double() * 14.0 - 7.0);
      samples.push_back(v);
      s.observe(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1));
      const double truth = samples[rank];
      const double est = s.quantile(q);
      EXPECT_LE(std::abs(est - truth), truth * 0.02 * 1.0001)
          << "seed=" << seed << " q=" << q;
    }
  }
}

TEST(QuantileSketchTest, MergeIsCommutative) {
  // merge(a, b) and merge(b, a) must hold identical bucket state — the
  // shard-merge bit-identity contract.
  util::Rng rng(99);
  QuantileSketch a;
  QuantileSketch b;
  QuantileSketch ab;
  QuantileSketch ba;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.next_exponential(0.1);
    if (i % 2 == 0) {
      a.observe(v);
    } else {
      b.observe(v);
    }
  }
  ab.merge_from(a);
  ab.merge_from(b);
  ba.merge_from(b);
  ba.merge_from(a);
  EXPECT_EQ(ab.buckets(), ba.buckets());
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.zero_count(), ba.zero_count());
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
  for (const double q : {0.5, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(ab.quantile(q), ba.quantile(q));
  }
}

TEST(QuantileSketchTest, MergeMatchesSingleSketchOverSameSamples) {
  // Any grouping of the same multiset of samples yields identical state.
  util::Rng rng(3);
  QuantileSketch whole;
  QuantileSketch part1;
  QuantileSketch part2;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100.0;
    whole.observe(v);
    (i < 300 ? part1 : part2).observe(v);
  }
  part1.merge_from(part2);
  EXPECT_EQ(whole.buckets(), part1.buckets());
  EXPECT_EQ(whole.count(), part1.count());
  EXPECT_DOUBLE_EQ(whole.sum(), part1.sum());
}

TEST(QuantileSketchTest, MergeRejectsMismatchedAccuracy) {
  QuantileSketch a({.relative_accuracy = 0.01});
  QuantileSketch b({.relative_accuracy = 0.02});
  try {
    a.merge_from(b);
    FAIL() << "mismatched accuracy must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_THAT(e.what(), testing::HasSubstr("relative accuracy mismatch"));
  }
}

TEST(QuantileSketchTest, BucketBudgetCollapsesLowestFirst) {
  QuantileSketch s({.relative_accuracy = 0.01, .max_buckets = 8});
  // 32 distinct decades -> far more than 8 buckets before collapsing.
  for (int i = 0; i < 32; ++i) {
    s.observe(std::pow(1.5, i));
  }
  EXPECT_LE(s.bucket_count(), 8U);
  EXPECT_GT(s.collapsed(), 0U);
  EXPECT_EQ(s.count(), 32U);
  // Tail quantiles keep full accuracy: the max sample is 1.5^31.
  const double top = std::pow(1.5, 31);
  EXPECT_NEAR(s.quantile(1.0), top, top * 0.011);
  // Total mass is preserved across collapses.
  std::uint64_t total = 0;
  for (const auto& [index, n] : s.buckets()) {
    total += n;
  }
  EXPECT_EQ(total, 32U);
}

TEST(QuantileSketchTest, ClearResetsEverything) {
  QuantileSketch s;
  s.observe(5.0);
  s.observe(0.0);
  s.clear();
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.zero_count(), 0U);
  EXPECT_EQ(s.bucket_count(), 0U);
  EXPECT_EQ(s.heap_bytes(), 0U);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

// --- Reference: the std::map sketch the dense store replaced ---------------
//
// The original algorithm, kept here verbatim in spirit (same index function,
// budget rule, zero bucket and quantile walk) so that the dense counter
// array can be held to bit-identical results over seeded streams.
class MapSketch {
 public:
  explicit MapSketch(QuantileSketch::Options options) : options_(options) {
    gamma_ = (1.0 + options_.relative_accuracy) /
             (1.0 - options_.relative_accuracy);
    log_gamma_ = std::log(gamma_);
  }

  void observe(double sample) {
    if (count_ == 0) {
      min_ = sample;
      max_ = sample;
    } else {
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
    if (sample <= QuantileSketch::kMinTrackable) {
      ++zero_count_;
      return;
    }
    ++buckets_[static_cast<std::int32_t>(
        std::ceil(std::log(sample) / log_gamma_))];
    collapse_to_budget();
  }

  void merge_from(const MapSketch& other) {
    if (other.count_ > 0) {
      min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
      max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    zero_count_ += other.zero_count_;
    collapsed_ += other.collapsed_;
    for (const auto& [index, n] : other.buckets_) {
      buckets_[index] += n;
    }
    collapse_to_budget();
  }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    if (rank < zero_count_) {
      return 0.0;
    }
    std::uint64_t cum = zero_count_;
    for (const auto& [index, n] : buckets_) {
      cum += n;
      if (cum > rank) {
        return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
      }
    }
    return max_;
  }

  [[nodiscard]] std::vector<std::pair<std::int32_t, std::uint64_t>> buckets()
      const {
    return {buckets_.begin(), buckets_.end()};
  }

  void clear() { *this = MapSketch(options_); }

  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  std::uint64_t collapsed_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;

 private:
  void collapse_to_budget() {
    while (buckets_.size() > options_.max_buckets) {
      auto lowest = buckets_.begin();
      std::next(lowest)->second += lowest->second;
      buckets_.erase(lowest);
      ++collapsed_;
    }
  }

  QuantileSketch::Options options_;
  double gamma_;
  double log_gamma_;
  std::map<std::int32_t, std::uint64_t> buckets_;
};

/// Requires bit-identical state and estimates between the two sketches.
void expect_same(const QuantileSketch& dense, const MapSketch& ref,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(dense.buckets(), ref.buckets());
  EXPECT_EQ(dense.bucket_count(), ref.buckets().size());
  EXPECT_EQ(dense.collapsed(), ref.collapsed_);
  EXPECT_EQ(dense.zero_count(), ref.zero_count_);
  EXPECT_EQ(dense.count(), ref.count_);
  EXPECT_EQ(dense.sum(), ref.sum_);
  EXPECT_EQ(dense.min(), ref.count_ == 0 ? 0.0 : ref.min_);
  EXPECT_EQ(dense.max(), ref.count_ == 0 ? 0.0 : ref.max_);
  for (int i = 0; i <= 1000; ++i) {
    const double q = i / 1000.0;
    EXPECT_EQ(dense.quantile(q), ref.quantile(q)) << "q=" << q;
  }
}

/// Log-uniform over [10^lo, 10^hi], with a share of exact zeros and of
/// negatives.
double draw(util::Rng& rng, double lo, double hi, double zero_share = 0.0) {
  const double u = rng.next_double();
  if (u < zero_share) {
    return u < zero_share / 2.0 ? 0.0 : -u;
  }
  return std::pow(10.0, lo + (hi - lo) * rng.next_double());
}

constexpr std::size_t kBudgets[] = {2, 4, 16, 512};

TEST(DenseStoreReferenceTest, LogUniformOverManyDecades) {
  for (const std::size_t budget : kBudgets) {
    for (const std::uint64_t seed : {1ULL, 1997ULL, 424242ULL}) {
      const QuantileSketch::Options options{.relative_accuracy = 0.01,
                                            .max_buckets = budget};
      QuantileSketch dense(options);
      MapSketch ref(options);
      util::Rng rng(seed);
      for (int i = 0; i < 20000; ++i) {
        // 24 decades, from just above the zero floor to 1e15.
        const double v = draw(rng, -8.9, 15.0, 0.01);
        dense.observe(v);
        ref.observe(v);
      }
      expect_same(dense, ref,
                  "budget=" + std::to_string(budget) +
                      " seed=" + std::to_string(seed));
    }
  }
}

TEST(DenseStoreReferenceTest, SamplesBelowTheFloorAtBudget) {
  // Fill the budget high, then keep landing below the lowest tracked
  // bucket (the collapse-on-insert path), interleaved with new high
  // buckets that force collapses from the other side.
  for (const std::size_t budget : kBudgets) {
    const QuantileSketch::Options options{.relative_accuracy = 0.02,
                                          .max_buckets = budget};
    QuantileSketch dense(options);
    MapSketch ref(options);
    util::Rng rng(budget);
    for (int i = 0; i < 3000; ++i) {
      const double v = draw(rng, 2.0, 4.0);
      dense.observe(v);
      ref.observe(v);
    }
    for (int i = 0; i < 6000; ++i) {
      const double v = i % 5 == 0 ? draw(rng, 4.0, 6.0)
                                  : draw(rng, -8.0, 2.0, 0.05);
      dense.observe(v);
      ref.observe(v);
    }
    expect_same(dense, ref, "budget=" + std::to_string(budget));
    EXPECT_GT(dense.collapsed(), 0U);
  }
}

TEST(DenseStoreReferenceTest, ZerosAndTinyValues) {
  const QuantileSketch::Options options{.relative_accuracy = 0.01,
                                        .max_buckets = 16};
  QuantileSketch dense(options);
  MapSketch ref(options);
  for (const double v : {0.0, -1.0, 1e-12, QuantileSketch::kMinTrackable,
                         std::nextafter(QuantileSketch::kMinTrackable, 1.0),
                         1e-9 * 1.5, 0.0, 1.0, -0.0}) {
    dense.observe(v);
    ref.observe(v);
  }
  expect_same(dense, ref, "zeros");
  EXPECT_EQ(dense.zero_count(), 6U);
}

TEST(DenseStoreReferenceTest, MergesOfDisjointAndOverlappingRanges) {
  // Source ranges: below, above, overlapping and inside the target's;
  // target and source budgets differ, and targets start empty or not.
  const double ranges[][2] = {{-6.0, -3.0}, {2.0, 5.0}, {-4.0, 3.0},
                              {-1.0, 0.5}};
  for (const std::size_t budget : kBudgets) {
    for (const std::size_t source_budget : {std::size_t{4}, std::size_t{512}}) {
      const QuantileSketch::Options options{.relative_accuracy = 0.01,
                                            .max_buckets = budget};
      const QuantileSketch::Options source_options{
          .relative_accuracy = 0.01, .max_buckets = source_budget};
      QuantileSketch dense(options);
      MapSketch ref(options);
      util::Rng rng(budget * 31 + source_budget);
      for (const auto& range : ranges) {
        QuantileSketch part(source_options);
        MapSketch part_ref(source_options);
        for (int i = 0; i < 2000; ++i) {
          const double v = draw(rng, range[0], range[1], 0.02);
          part.observe(v);
          part_ref.observe(v);
        }
        expect_same(part, part_ref, "part");
        dense.merge_from(part);
        ref.merge_from(part_ref);
        expect_same(dense, ref,
                    "budget=" + std::to_string(budget) + " source=" +
                        std::to_string(source_budget) + " range=" +
                        std::to_string(range[0]));
      }
      // And the merged sketch keeps observing identically.
      for (int i = 0; i < 2000; ++i) {
        const double v = draw(rng, -7.0, 7.0, 0.02);
        dense.observe(v);
        ref.observe(v);
      }
      expect_same(dense, ref, "observe after merges");
    }
  }
}

TEST(DenseStoreReferenceTest, ReuseAfterClear) {
  for (const std::size_t budget : kBudgets) {
    const QuantileSketch::Options options{.relative_accuracy = 0.01,
                                          .max_buckets = budget};
    QuantileSketch dense(options);
    MapSketch ref(options);
    util::Rng rng(77 + budget);
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 3000; ++i) {
        // Each round sits somewhere else on the index line.
        const double v = draw(rng, 3.0 * round - 5.0, 3.0 * round - 1.0, 0.01);
        dense.observe(v);
        ref.observe(v);
      }
      expect_same(dense, ref, "round " + std::to_string(round));
      dense.clear();
      ref.clear();
      expect_same(dense, ref, "cleared");
    }
  }
}

}  // namespace
}  // namespace vodbcast::obs
