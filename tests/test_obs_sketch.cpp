#include "obs/quantile_sketch.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
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
  // The floor itself counts as zero too; the next double up is tracked.
  s.observe(QuantileSketch::kMinTrackable);
  s.observe(std::nextafter(QuantileSketch::kMinTrackable, 0.0));
  EXPECT_EQ(s.zero_count(), 5U);
  EXPECT_EQ(s.bucket_count(), 0U);
  s.observe(std::nextafter(QuantileSketch::kMinTrackable, 1.0));
  EXPECT_EQ(s.zero_count(), 5U);
  EXPECT_EQ(s.bucket_count(), 1U);
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

// --- The boundary table behind SketchCore's bucket index ------------------
//
// detail::BucketBounds answers detail::log_index at the default accuracy
// from a table of bucket boundaries. Exactness is checked against the
// formula itself: everywhere a rounding of log() could matter (within
// 2^11 ulps of each boundary), on the edges of every guide key, on
// log-uniform samples over the whole trackable domain, and through the
// sketch.

using detail::BucketBounds;
using detail::log_index;

const double kLogGamma = detail::log_gamma_of(detail::kDefaultAccuracy);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Counts the samples whose table index differs from the formula's, or
/// that the table declines inside [kLow, kHigh], and keeps the first one
/// for the failure message. A sample past the covered keys takes the
/// formula in SketchCore::index_of, so a decline there is no mismatch.
struct Mismatches {
  std::uint64_t checked = 0;
  std::uint64_t declined = 0;
  std::uint64_t count = 0;
  double first = 0.0;

  void check(double x) {
    ++checked;
    const auto table = BucketBounds::instance().find(x, kLogGamma);
    const bool covered = x >= BucketBounds::kLow && x <= BucketBounds::kHigh;
    declined += table.has_value() ? 0 : 1;
    if (table.has_value() ? *table != log_index(x, kLogGamma) : covered) {
      if (count++ == 0) {
        first = x;
      }
    }
  }
  [[nodiscard]] std::string describe() const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%llu of %llu differ, first at %.17g",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(checked), first);
    return buf;
  }
};

TEST(BucketBoundsTest, BoundariesRiseAndSplitTheFormulasBuckets) {
  // The constructor's "index_of is monotone" as a checked property, at the
  // table's boundaries: each bound is its bucket's largest double, the
  // bounds rise, and the table spans ~2.4k buckets over [1e-9, 1e12].
  const auto& table = BucketBounds::instance();
  const auto& upper = table.upper();
  EXPECT_NEAR(static_cast<double>(upper.size()), 2420.0, 10.0);
  EXPECT_LE(table.first_index(), log_index(BucketBounds::kLow, kLogGamma));
  EXPECT_GE(upper.back(), BucketBounds::kHigh);
  for (std::size_t j = 0; j < upper.size(); ++j) {
    const auto index = table.first_index() + static_cast<std::int32_t>(j);
    ASSERT_EQ(log_index(upper[j], kLogGamma), index) << "bound " << j;
    ASSERT_EQ(log_index(std::nextafter(upper[j], kInf), kLogGamma), index + 1)
        << "bound " << j;
    if (j > 0) {
      ASSERT_LT(upper[j - 1], upper[j]) << "bound " << j;
    }
  }
  // gamma^0 = 1 is its own bucket's largest sample.
  EXPECT_EQ(upper[static_cast<std::size_t>(-table.first_index())], 1.0);
}

TEST(BucketBoundsTest, MatchesTheFormulaWithin2To11UlpsOfEveryBoundary) {
  // Every double from 2^11 ulps below to 2^11 ulps above each boundary:
  // wherever log()'s last bit could move a sample across one. The formula
  // must also be monotone there.
  Mismatches mismatches;
  std::uint64_t falls = 0;
  for (const double bound : BucketBounds::instance().upper()) {
    double x = bound;
    for (int k = 0; k < 2048; ++k) {
      x = std::nextafter(x, 0.0);
    }
    std::int32_t previous = log_index(x, kLogGamma);
    for (int k = -2048; k <= 2048; ++k) {
      mismatches.check(x);
      const std::int32_t index = log_index(x, kLogGamma);
      falls += index < previous ? 1 : 0;
      previous = index;
      x = std::nextafter(x, kInf);
    }
  }
  EXPECT_GT(mismatches.checked, 9'000'000U);
  // Only the last bucket's boundary lies past the covered keys.
  EXPECT_EQ(mismatches.declined, 4097U);
  EXPECT_EQ(mismatches.count, 0U) << mismatches.describe();
  EXPECT_EQ(falls, 0U) << "log_index falls somewhere near a boundary";
}

TEST(BucketBoundsTest, MatchesTheFormulaAtEveryKeysEdges) {
  // The first and last double of every guide key: each key's guide entry
  // and its one compare.
  constexpr int kShift = 52 - BucketBounds::kKeyBits;
  const std::uint64_t first = std::bit_cast<std::uint64_t>(BucketBounds::kLow) >> kShift;
  const std::uint64_t last = std::bit_cast<std::uint64_t>(BucketBounds::kHigh) >> kShift;
  Mismatches mismatches;
  for (std::uint64_t key = first; key <= last; ++key) {
    mismatches.check(std::bit_cast<double>(key << kShift));
    mismatches.check(std::bit_cast<double>(((key + 1) << kShift) - 1));
  }
  EXPECT_EQ(mismatches.checked, 2 * (last - first + 1));
  EXPECT_EQ(mismatches.declined, 0U);
  EXPECT_EQ(mismatches.count, 0U) << mismatches.describe();
  // One double either side of the covered keys takes the formula.
  EXPECT_FALSE(BucketBounds::instance()
                   .find(std::bit_cast<double>((first << kShift) - 1), kLogGamma)
                   .has_value());
  EXPECT_FALSE(BucketBounds::instance()
                   .find(std::bit_cast<double>((last + 1) << kShift), kLogGamma)
                   .has_value());
}

TEST(BucketBoundsTest, MatchesTheFormulaOnLogUniformSamples) {
  // 10^7 samples log-uniform over [kMinTrackable, DBL_MAX]: inside the
  // table they must match the formula; outside it (about 93% of them)
  // the table must decline, leaving the formula to answer.
  const double lo = std::log(SketchCore::kMinTrackable);
  const double span = std::log(DBL_MAX) - lo;
  util::Rng rng(20260807);
  Mismatches mismatches;
  std::int32_t lowest = std::numeric_limits<std::int32_t>::max();
  std::int32_t highest = std::numeric_limits<std::int32_t>::min();
  for (int i = 0; i < 10'000'000; ++i) {
    const double x = std::clamp(std::exp(lo + span * rng.next_double()),
                                SketchCore::kMinTrackable, DBL_MAX);
    const std::int32_t index = log_index(x, kLogGamma);
    lowest = std::min(lowest, index);
    highest = std::max(highest, index);
    mismatches.check(x);
  }
  EXPECT_EQ(mismatches.count, 0U) << mismatches.describe();
  EXPECT_GT(mismatches.checked - mismatches.declined, 500'000U);
  EXPECT_GT(mismatches.declined, 9'000'000U);
  // Monotone at the domain's ends: no finite sample above the floor leaves
  // the index range the constructor derives from kMinTrackable and DBL_MAX.
  EXPECT_GE(lowest, log_index(SketchCore::kMinTrackable, kLogGamma));
  EXPECT_LE(highest, log_index(DBL_MAX, kLogGamma));
}

TEST(BucketBoundsTest, MatchesTheFormulaAtTheEdgesOfTheDomain) {
  const auto& table = BucketBounds::instance();
  Mismatches mismatches;
  for (const double x :
       {1.0, std::nextafter(1.0, 0.0), std::nextafter(1.0, 2.0),
        SketchCore::kMinTrackable,
        std::nextafter(SketchCore::kMinTrackable, 0.0),
        std::nextafter(SketchCore::kMinTrackable, 1.0), BucketBounds::kLow,
        BucketBounds::kHigh, std::nextafter(BucketBounds::kHigh, 0.0),
        std::nextafter(BucketBounds::kHigh, kInf), table.upper().front(),
        table.upper().back()}) {
    mismatches.check(x);
  }
  EXPECT_EQ(mismatches.count, 0U) << mismatches.describe();
  EXPECT_EQ(table.find(1.0, kLogGamma), std::optional<std::int32_t>(0));
  // Outside the table the formula answers: DBL_MAX, tiny and negative
  // samples, and any other accuracy's grid.
  for (const double x : {DBL_MAX, 1e300, 1e-300, 5e-324, 0.0, -1.0}) {
    EXPECT_FALSE(table.find(x, kLogGamma).has_value()) << x;
  }
  EXPECT_FALSE(table.find(2.0, detail::log_gamma_of(0.02)).has_value());
  SketchCore core;
  core.observe(DBL_MAX);
  core.observe(std::nextafter(SketchCore::kMinTrackable, 1.0));
  const std::vector<std::pair<std::int32_t, std::uint64_t>> expected = {
      {log_index(std::nextafter(SketchCore::kMinTrackable, 1.0), kLogGamma), 1},
      {log_index(DBL_MAX, kLogGamma), 1}};
  EXPECT_EQ(core.buckets(), expected);
}

TEST(BucketBoundsTest, OtherAccuraciesTakeTheFormula) {
  for (const double accuracy : {0.02, 0.001, 1.0 / 3.0}) {
    SketchCore core({.relative_accuracy = accuracy, .max_buckets = 1 << 16});
    const double log_gamma = std::log(core.gamma());
    EXPECT_EQ(log_gamma, detail::log_gamma_of(accuracy));
    std::map<std::int32_t, std::uint64_t> expected;
    util::Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
      const double x = std::exp(-20.0 + 48.0 * rng.next_double());
      core.observe(x);
      ++expected[log_index(x, log_gamma)];
    }
    const std::vector<std::pair<std::int32_t, std::uint64_t>> want(
        expected.begin(), expected.end());
    EXPECT_EQ(core.buckets(), want) << "accuracy " << accuracy;
  }
}

TEST(BucketBoundsTest, ThreadsRaceToFirstUse) {
  // Run alone (a fresh process), the first sketch any thread here builds
  // builds the table: four threads build sketches and observe at once, so
  // the thread sanitizer sees the static initializer raced.
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::vector<std::pair<std::int32_t, std::uint64_t>>> got(
      kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      SketchCore core;
      QuantileSketch locked;
      for (int i = 1; i <= 2000; ++i) {
        const double x = 1e-3 * i * (t + 1);
        core.observe(x);
        locked.observe(x);
      }
      got[static_cast<std::size_t>(t)] = core.buckets();
      EXPECT_EQ(locked.buckets(), got[static_cast<std::size_t>(t)]);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    std::map<std::int32_t, std::uint64_t> expected;
    for (int i = 1; i <= 2000; ++i) {
      ++expected[log_index(1e-3 * i * (t + 1), kLogGamma)];
    }
    EXPECT_EQ(got[static_cast<std::size_t>(t)],
              (std::vector<std::pair<std::int32_t, std::uint64_t>>(
                  expected.begin(), expected.end())));
  }
}

}  // namespace
}  // namespace vodbcast::obs
