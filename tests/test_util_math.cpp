#include "util/math.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "schemes/skyscraper.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::util {
namespace {

TEST(GcdTest, BasicPairs) {
  EXPECT_EQ(gcd_u64(12, 18), 6U);
  EXPECT_EQ(gcd_u64(18, 12), 6U);
  EXPECT_EQ(gcd_u64(7, 13), 1U);
  EXPECT_EQ(gcd_u64(0, 5), 5U);
  EXPECT_EQ(gcd_u64(5, 0), 5U);
  EXPECT_EQ(gcd_u64(42, 42), 42U);
}

TEST(GcdTest, ConsecutiveSkyscraperGroupSizesAreCoprime) {
  // The correctness proof of the paper's Section 4 rests on
  // gcd(A, 2A+1) == 1 for every group size A.
  for (std::uint64_t a = 1; a < 1000; ++a) {
    EXPECT_EQ(gcd_u64(a, 2 * a + 1), 1U) << "A = " << a;
  }
}

TEST(LcmTest, BasicPairs) {
  EXPECT_EQ(lcm_u64(4, 6), 12U);
  EXPECT_EQ(lcm_u64(1, 9), 9U);
  EXPECT_EQ(lcm_u64(12, 12), 12U);
}

TEST(LcmTest, RejectsZero) {
  EXPECT_THROW((void)lcm_u64(0, 3), ContractViolation);
}

TEST(CheckedMulTest, DetectsOverflow) {
  const auto big = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(checked_mul(big, 2).has_value());
  EXPECT_EQ(checked_mul(big, 1), big);
  EXPECT_EQ(checked_mul(3, 4), 12U);
}

TEST(CheckedAddTest, DetectsOverflow) {
  const auto big = std::numeric_limits<std::uint64_t>::max();
  EXPECT_FALSE(checked_add(big, 1).has_value());
  EXPECT_EQ(checked_add(big - 1, 1), big);
}

TEST(MulOrDieTest, ThrowsOnOverflow) {
  const auto big = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)mul_or_die(big, 3), ContractViolation);
  EXPECT_EQ(mul_or_die(6, 7), 42U);
}

TEST(IpowTest, SmallPowers) {
  EXPECT_EQ(ipow(2, 0), 1U);
  EXPECT_EQ(ipow(2, 10), 1024U);
  EXPECT_EQ(ipow(3, 4), 81U);
  EXPECT_EQ(ipow(10, 6), 1000000U);
}

TEST(IpowTest, ThrowsOnOverflow) {
  EXPECT_THROW((void)ipow(2, 64), ContractViolation);
}

TEST(AlmostEqualTest, Tolerances) {
  EXPECT_TRUE(almost_equal(1.0, 1.0));
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(1e9, 1e9 * (1.0 + 1e-10)));
}

TEST(GeometricSumTest, MatchesDirectSummation) {
  const double r = 2.5;
  double direct = 0.0;
  for (int n = 0; n <= 12; ++n) {
    EXPECT_NEAR(geometric_sum(r, n), direct, 1e-9 * (direct + 1.0))
        << "n = " << n;
    direct += std::pow(r, n);
  }
}

TEST(GeometricSumTest, UnitRatio) {
  EXPECT_DOUBLE_EQ(geometric_sum(1.0, 7), 7.0);
}

TEST(GeometricSumTest, RejectsNegativeCount) {
  EXPECT_THROW((void)geometric_sum(2.0, -1), ContractViolation);
}

TEST(RobustFloorTest, PlainValues) {
  EXPECT_EQ(robust_floor(2.9), 2);
  EXPECT_EQ(robust_floor(3.0), 3);
  EXPECT_EQ(robust_floor(-1.5), -2);
}

TEST(RobustFloorTest, AbsorbsRepresentationNoise) {
  // 0.1 * 30 is 2.9999999999999996 in binary; the paper's K = floor(B/(bM))
  // must still read 3.
  EXPECT_EQ(robust_floor(0.1 * 30.0), 3);
  EXPECT_EQ(robust_floor(3.0 - 1e-12), 3);
  EXPECT_EQ(robust_floor(3.0 - 1e-6), 2);
}

TEST(InterpolatedQuantileTest, LinearBetweenOrderStatistics) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(interpolated_quantile(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(interpolated_quantile(sorted, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(interpolated_quantile(sorted, 0.5), 30.0);
  // rank = 0.95 * 4 = 3.8 -> 40 + 0.8 * (50 - 40).
  EXPECT_DOUBLE_EQ(interpolated_quantile(sorted, 0.95), 48.0);
  EXPECT_DOUBLE_EQ(interpolated_quantile({7.0}, 0.5), 7.0);
  EXPECT_THROW((void)interpolated_quantile({}, 0.5), ContractViolation);
  EXPECT_THROW((void)interpolated_quantile(sorted, 1.5), ContractViolation);
}

/// Compares fmod_nonneg with std::fmod bit for bit (signed zeros
/// included), reports the first mismatch and counts them all, and counts
/// the pairs where floor(t / d) overshoots the true floor quotient: the
/// case fmod_nonneg's fix-up step exists for.
struct FmodCheck {
  std::uint64_t pairs = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t fixups = 0;

  void operator()(double t, double d) {
    ++pairs;
    const double q = std::floor(t / d);
    fixups += q < 0x1p53 && std::fma(-q, d, t) < 0.0 ? 1 : 0;
    const double want = std::fmod(t, d);
    const double got = fmod_nonneg(t, d);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(want)) {
      if (mismatches == 0) {
        ADD_FAILURE() << std::hexfloat << "fmod_nonneg(" << t << ", " << d
                      << ") = " << got << ", std::fmod = " << want;
      }
      ++mismatches;
    }
  }
};

TEST(FmodNonnegTest, EqualsFmodOnRandomPairsAcrossExponents) {
  // t and d span 2^-40 .. 2^41 independently, so t / d ranges from far
  // below 1 to past 2^53 (where the helper hands over to std::fmod).
  Rng rng(20260807);
  const auto draw = [&rng] {
    const double mantissa = 1.0 + rng.next_double();
    const int exponent = static_cast<int>(rng.next_below(81)) - 40;
    return std::ldexp(mantissa, exponent);
  };
  FmodCheck check;
  for (int i = 0; i < 10'000'000; ++i) {
    const double t = draw();
    check(t, draw());
  }
  EXPECT_EQ(check.mismatches, 0U) << "of " << check.pairs;
  EXPECT_GT(check.fixups, 0U);
}

TEST(FmodNonnegTest, EqualsFmodAtEveryMultipleAndItsNeighbours) {
  // k * d rounds to a double near a multiple of d, where t / d rounds to
  // the integer k from either side; its nextafter neighbours straddle it.
  // d1 is the metro campaign's broadcast latency (SB:W=52 on 6 channels).
  const schemes::SkyscraperScheme sb(52);
  const core::VideoParams video{};
  const double d1 =
      sb.evaluate(schemes::DesignInput{
                      core::MbitPerSec{video.display_rate.v * 6}, 1, video})
          ->metrics.access_latency.v;
  FmodCheck check;
  for (const double d : {d1, 0.1, 1.0 / 3.0, 0.7, 3.0, 4.4, 1e-3, 123.456,
                         0x1.fffffffffffffp-1, 5e-324}) {
    for (std::uint64_t k = 0; k <= 200'000; ++k) {
      const double t = static_cast<double>(k) * d;
      check(t, d);
      check(std::nextafter(t, 0.0), d);
      check(std::nextafter(t, HUGE_VAL), d);
    }
  }
  EXPECT_EQ(check.mismatches, 0U) << "of " << check.pairs;
  EXPECT_GT(check.fixups, 0U);
}

TEST(FmodNonnegTest, EqualsFmodOnSmallQuotientsZeroAndTheFallback) {
  FmodCheck check;
  // t < d: the remainder is t itself; t = 0 gives +0.
  for (const double d : {1e-300, 0.5, 4.4444444444444446, 1e300}) {
    for (const double t : {0.0, d * 0.5, std::nextafter(d, 0.0),
                           std::numeric_limits<double>::denorm_min()}) {
      check(t, d);
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fmod_nonneg(0.0, 3.0)), 0U);
  // t / d at or past 2^53, or not finite: std::fmod itself answers.
  for (const auto& [t, d] :
       {std::pair{0x1p53, 1.0}, std::pair{0x1p60, 3.0},
        std::pair{1e300, 1e-300}, std::pair{0x1.fffffffffffffp+52, 1.0}}) {
    check(t, d);
  }
  EXPECT_TRUE(std::isnan(fmod_nonneg(HUGE_VAL, 2.0)));
  // The campaign's arrival times: [0, 1200) minutes against its d1.
  Rng rng(31337);
  for (int i = 0; i < 1'000'000; ++i) {
    check(1200.0 * rng.next_double(), 4.4444444444444446);
  }
  EXPECT_EQ(check.mismatches, 0U) << "of " << check.pairs;
}

TEST(ContractsTest, ViolationCarriesContext) {
  try {
    VB_EXPECTS_MSG(false, "details");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_STREQ(e.kind(), "precondition");
    EXPECT_NE(std::string(e.what()).find("details"), std::string::npos);
    EXPECT_GT(e.line(), 0);
  }
}

}  // namespace
}  // namespace vodbcast::util
