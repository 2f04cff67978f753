#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/contracts.hpp"
#include "workload/arrivals.hpp"
#include "workload/request.hpp"
#include "workload/zipf.hpp"

namespace vodbcast::workload {
namespace {

TEST(ZipfTest, ProbabilitiesNormalized) {
  for (const std::size_t n : {1UL, 10UL, 100UL}) {
    const auto p = zipf_probabilities(n);
    double total = 0.0;
    for (const double x : p) {
      EXPECT_GT(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "n = " << n;
  }
}

TEST(ZipfTest, MonotoneDecreasing) {
  const auto p = zipf_probabilities(50);
  for (std::size_t i = 1; i < p.size(); ++i) {
    EXPECT_GT(p[i - 1], p[i]);
  }
}

TEST(ZipfTest, PropertiesHoldAcrossThetaGrid) {
  // The two structural properties the whole workload substrate leans on —
  // normalization and strict rank ordering — must hold for every skew the
  // API admits, not just the paper's 0.271.
  for (const double theta : {0.0, 0.1, 0.271, 0.5, 0.75, 1.0}) {
    for (const std::size_t n : {1UL, 2UL, 17UL, 100UL, 1000UL}) {
      const auto p = zipf_probabilities(n, theta);
      ASSERT_EQ(p.size(), n);
      double total = 0.0;
      for (const double x : p) {
        total += x;
      }
      EXPECT_NEAR(total, 1.0, 1e-12) << "n=" << n << " theta=" << theta;
      for (std::size_t i = 1; i < n; ++i) {
        EXPECT_GT(p[i - 1], p[i]) << "n=" << n << " theta=" << theta
                                  << " rank=" << i;
      }
    }
  }
}

TEST(ZipfTest, TitlesForMassBoundaries) {
  const auto p = zipf_probabilities(100, kPaperSkew);
  // Zero mass is covered by the single most popular title (the smallest
  // non-empty prefix); full mass needs the whole catalog.
  EXPECT_EQ(titles_for_mass(p, 0.0), 1U);
  EXPECT_EQ(titles_for_mass(p, 1.0), 100U);
  // A one-title catalog answers 1 for every mass.
  const auto solo = zipf_probabilities(1, kPaperSkew);
  EXPECT_EQ(titles_for_mass(solo, 0.0), 1U);
  EXPECT_EQ(titles_for_mass(solo, 0.5), 1U);
  EXPECT_EQ(titles_for_mass(solo, 1.0), 1U);
}

TEST(ZipfTest, PaperSkewConcentratesDemand) {
  // Paper Section 1: with skew 0.271, "most of the demand (80%) is for a few
  // (10 to 20) very popular movies" out of a typical store of ~100.
  const auto p = zipf_probabilities(100, kPaperSkew);
  const auto k = titles_for_mass(p, 0.8);
  EXPECT_GE(k, 10U);
  EXPECT_LE(k, 25U);
}

TEST(ZipfTest, ZeroSkewIsHarmonicZipf) {
  const auto p = zipf_probabilities(10, 0.0);
  // p_i proportional to 1/i: p_1 / p_2 = 2.
  EXPECT_NEAR(p[0] / p[1], 2.0, 1e-12);
  EXPECT_NEAR(p[0] / p[4], 5.0, 1e-12);
}

TEST(ZipfTest, LargerSkewConcentratesMore) {
  const auto flat = zipf_probabilities(100, 0.0);
  const auto skewed = zipf_probabilities(100, 0.5);
  EXPECT_LT(titles_for_mass(skewed, 0.8), titles_for_mass(flat, 0.8));
}

TEST(ZipfTest, RejectsBadParameters) {
  EXPECT_THROW((void)zipf_probabilities(0), util::ContractViolation);
  EXPECT_THROW((void)zipf_probabilities(5, -0.1), util::ContractViolation);
  EXPECT_THROW((void)zipf_probabilities(5, 1.5), util::ContractViolation);
}

TEST(TitlesForMassTest, Boundaries) {
  const std::vector<double> p{0.5, 0.3, 0.2};
  EXPECT_EQ(titles_for_mass(p, 0.0), 1U);
  EXPECT_EQ(titles_for_mass(p, 0.5), 1U);
  EXPECT_EQ(titles_for_mass(p, 0.6), 2U);
  EXPECT_EQ(titles_for_mass(p, 1.0), 3U);
}

TEST(PoissonProcessTest, ArrivalsAreMonotone) {
  PoissonProcess process(4.0, util::Rng(3));
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double t = process.next().v;
    EXPECT_GT(t, last);
    last = t;
  }
}

TEST(PoissonProcessTest, RateMatchesLongRunAverage) {
  PoissonProcess process(4.0, util::Rng(17));
  const int n = 40000;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t = process.next().v;
  }
  EXPECT_NEAR(n / t, 4.0, 0.1);
}

TEST(PoissonProcessTest, RejectsNonFiniteRates) {
  for (const double rate : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 0.0,
                            -1.0}) {
    EXPECT_THROW(PoissonProcess(rate, util::Rng(1)), util::ContractViolation)
        << rate;
  }
}

TEST(RequestFeedTest, RejectsNonFiniteHorizonsAndRates) {
  const auto popularity = zipf_probabilities(10);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    // A non-finite horizon would never end the stream.
    EXPECT_THROW(
        RequestFeed(RequestGenerator(popularity, 2.0, util::Rng(1)),
                    core::Minutes{bad}),
        util::ContractViolation)
        << bad;
  }
  EXPECT_THROW(RequestFeed(RequestGenerator(
                               popularity,
                               std::numeric_limits<double>::infinity(),
                               util::Rng(1)),
                           core::Minutes{60.0}),
               util::ContractViolation);
}

/// Every request `feed` hands out, in order.
std::vector<Request> drain(RequestFeed& feed) {
  std::vector<Request> out;
  while (std::isfinite(feed.next_at())) {
    const double at = feed.next_at();
    out.push_back(feed.pop());
    EXPECT_EQ(out.back().arrival.v, at);
  }
  return out;
}

bool same(const std::vector<Request>& a, const std::vector<Request>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const Request& x, const Request& y) {
                      return x.arrival.v == y.arrival.v && x.video == y.video;
                    });
}

TEST(RequestFeedTest, UnfilteredFeedPopsGenerateUntilsStream) {
  for (const std::uint64_t seed : {1U, 7U, 42U}) {
    for (const double horizon : {0.25, 30.0, 600.0}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " horizon "
                                      << horizon);
      RequestGenerator twin(zipf_probabilities(12), 3.0, util::Rng(seed));
      const auto expected = twin.generate_until(core::Minutes{horizon});
      RequestFeed feed(RequestGenerator(zipf_probabilities(12), 3.0,
                                        util::Rng(seed)),
                       core::Minutes{horizon});
      EXPECT_TRUE(same(drain(feed), expected));
    }
  }
}

TEST(RequestFeedTest, FilterSeesEachDrawBeforeTheHorizonOnceInOrder) {
  RequestGenerator twin(zipf_probabilities(12), 3.0, util::Rng(9));
  const auto expected = twin.generate_until(core::Minutes{200.0});
  ASSERT_GT(expected.size(), 100U);
  std::vector<Request> seen;
  RequestFeed feed(
      RequestGenerator(zipf_probabilities(12), 3.0, util::Rng(9)),
      core::Minutes{200.0}, [&seen](Request& request) {
        EXPECT_LT(request.arrival.v, 200.0);  // never the ending draw
        seen.push_back(request);
        return seen.size() % 2 == 0;  // keep every other draw
      });
  const auto kept = drain(feed);
  EXPECT_TRUE(same(seen, expected));
  std::vector<Request> every_other;
  for (std::size_t i = 1; i < expected.size(); i += 2) {
    every_other.push_back(expected[i]);
  }
  EXPECT_TRUE(same(kept, every_other));
}

TEST(RequestFeedTest, DropAllFilterExhaustsTheFeedOnConstruction) {
  RequestGenerator twin(zipf_probabilities(12), 3.0, util::Rng(4));
  const auto expected = twin.generate_until(core::Minutes{100.0});
  std::size_t calls = 0;
  const RequestFeed feed(
      RequestGenerator(zipf_probabilities(12), 3.0, util::Rng(4)),
      core::Minutes{100.0}, [&calls](Request&) {
        ++calls;
        return false;
      });
  EXPECT_EQ(feed.next_at(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(calls, expected.size());
}

TEST(RequestFeedTest, PopReturnsTheRewrittenRequests) {
  RequestGenerator twin(zipf_probabilities(12), 3.0, util::Rng(6));
  auto expected = twin.generate_until(core::Minutes{100.0});
  const auto rewrite = [](Request& request) {
    request.arrival = core::Minutes{std::floor(request.arrival.v)};
    request.video += 100;
    return true;
  };
  for (auto& request : expected) {
    rewrite(request);
  }
  RequestFeed feed(RequestGenerator(zipf_probabilities(12), 3.0,
                                    util::Rng(6)),
                   core::Minutes{100.0}, rewrite);
  EXPECT_TRUE(same(drain(feed), expected));
}

TEST(RequestFeedTest, CountBoundIsTheMeanPlusFiveSigma) {
  // 2/min over 50 min: mean 100, sigma 10, so the bound is 150; it does
  // not depend on the popularity, the seed or a filter.
  EXPECT_EQ(RequestFeed(RequestGenerator(zipf_probabilities(12), 2.0,
                                         util::Rng(1)),
                        core::Minutes{50.0})
                .count_bound(),
            150U);
  EXPECT_EQ(RequestFeed(RequestGenerator({1.0}, 2.0, util::Rng(9)),
                        core::Minutes{50.0},
                        [](Request&) { return false; })
                .count_bound(),
            150U);
  // No horizon, no requests.
  EXPECT_EQ(RequestFeed(RequestGenerator({1.0}, 2.0, util::Rng(1)),
                        core::Minutes{0.0})
                .count_bound(),
            0U);
  // Every seed's stream stays within it.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RequestFeed feed(RequestGenerator({1.0}, 2.0, util::Rng(seed)),
                     core::Minutes{50.0});
    const std::size_t bound = feed.count_bound();
    EXPECT_LE(drain(feed).size(), bound) << seed;
  }
}

TEST(RequestGeneratorTest, VideosFollowPopularity) {
  const std::vector<double> popularity{0.7, 0.2, 0.1};
  RequestGenerator gen(popularity, 10.0, util::Rng(23));
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[gen.next().video];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.7, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.02);
}

TEST(RequestGeneratorTest, GenerateUntilRespectsHorizon) {
  RequestGenerator gen(zipf_probabilities(5), 2.0, util::Rng(29));
  const auto requests = gen.generate_until(core::Minutes{50.0});
  EXPECT_GT(requests.size(), 50U);
  for (const auto& r : requests) {
    EXPECT_LT(r.arrival.v, 50.0);
    EXPECT_LT(r.video, 5U);
  }
  // Expected count = rate * horizon = 100 +- sampling noise.
  EXPECT_NEAR(static_cast<double>(requests.size()), 100.0, 40.0);
}

TEST(RequestGeneratorTest, RejectsUnnormalizedPopularity) {
  EXPECT_THROW(RequestGenerator({0.5, 0.1}, 1.0, util::Rng(1)),
               util::ContractViolation);
}

/// The draw as a binary search computes it: std::upper_bound's rank over
/// the CDF, clamped to the last title. The guide table must match it.
std::size_t upper_bound_rank(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf.begin()), cdf.size() - 1);
}

/// Zipf catalogs of 1, 2, 3, 20, 100 and 4097 titles (4097 makes the guide
/// twice the catalog), zero-probability titles at the head, the middle and
/// the tail, and one title holding all the mass.
std::vector<std::vector<double>> guide_catalogs() {
  std::vector<std::vector<double>> catalogs;
  for (const std::size_t n : {1U, 2U, 3U, 20U, 100U, 4097U}) {
    catalogs.push_back(zipf_probabilities(n));
  }
  catalogs.push_back({0.0, 0.5, 0.0, 0.0, 0.25, 0.25, 0.0});
  catalogs.push_back({0.0, 0.0, 1.0, 0.0, 0.0});
  return catalogs;
}

TEST(TitleCdfTest, GuideLookupEqualsUpperBoundAtEveryBoundary) {
  for (const auto& popularity : guide_catalogs()) {
    const TitleCdf titles(popularity);
    const std::size_t m = titles.guide_size();
    ASSERT_TRUE(std::has_single_bit(m));
    ASSERT_GE(m, popularity.size());
    ASSERT_LT(m / 2, popularity.size());
    // Every guide boundary j/m and the CDF's own steps, each with its two
    // neighbours, plus both ends of next_double()'s range [0, 1 - 2^-53].
    std::vector<double> edges{0.0, 1.0 - 0x1.0p-53};
    for (std::size_t j = 0; j <= m; ++j) {
      edges.push_back(static_cast<double>(j) / static_cast<double>(m));
    }
    edges.insert(edges.end(), titles.cdf().begin(), titles.cdf().end());
    std::size_t checked = 0;
    for (const double edge : edges) {
      for (const double u :
           {std::nextafter(edge, -1.0), edge, std::nextafter(edge, 2.0)}) {
        if (u < 0.0 || u >= 1.0) {
          continue;
        }
        ASSERT_EQ(titles.rank(u), upper_bound_rank(titles.cdf(), u))
            << "u=" << u << " titles=" << popularity.size();
        ++checked;
      }
    }
    EXPECT_GE(checked, 3 * m);
  }
}

TEST(TitleCdfTest, CdfEndsAtExactlyOneAndSkipsEmptyTitles) {
  const TitleCdf titles({0.0, 0.0, 1.0, 0.0, 0.0});
  EXPECT_EQ(titles.cdf().back(), 1.0);
  EXPECT_EQ(titles.guide_size(), 8U);
  for (const double u : {0.0, 0.5, 1.0 - 0x1.0p-53}) {
    EXPECT_EQ(titles.rank(u), 2U);
  }
  // A head title of zero mass is never drawn, not even at u = 0.
  EXPECT_EQ(TitleCdf({0.0, 0.5, 0.5}).rank(0.0), 1U);
}

TEST(RequestGeneratorTest, DrawsMatchABinarySearchReference) {
  // The generator as it was before the guide table: the same forks of the
  // seed, the same CDF, and std::upper_bound on every draw.
  const auto popularity = zipf_probabilities(20);
  std::vector<double> cdf;
  double total = 0.0;
  for (const double p : popularity) {
    total += p;
    cdf.push_back(total);
  }
  cdf.back() = 1.0;
  util::Rng seed(424242);
  PoissonProcess arrivals(2000.0, seed.fork());
  util::Rng pick = seed.fork();

  RequestGenerator gen(popularity, 2000.0, util::Rng(424242));
  for (int i = 0; i < 1000000; ++i) {
    const Request got = gen.next();
    const core::Minutes at = arrivals.next();
    const std::size_t rank = upper_bound_rank(cdf, pick.next_double());
    ASSERT_EQ(got.arrival.v, at.v) << "draw " << i;
    ASSERT_EQ(got.video, rank) << "draw " << i;
  }
}


}  // namespace
}  // namespace vodbcast::workload
