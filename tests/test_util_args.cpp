#include "util/args.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace vodbcast::util {
namespace {

TEST(ArgParserTest, PositionalsAndFlags) {
  const ArgParser args({"design", "--scheme", "SB:W=52", "--bandwidth",
                        "600", "extra"});
  EXPECT_EQ(args.positional_count(), 2U);
  EXPECT_EQ(args.positional(0), "design");
  EXPECT_EQ(args.positional(1), "extra");
  EXPECT_EQ(args.get_string("scheme", ""), "SB:W=52");
  EXPECT_DOUBLE_EQ(args.get_double("bandwidth", 0.0), 600.0);
}

TEST(ArgParserTest, EqualsSyntax) {
  const ArgParser args({"--bandwidth=320.5", "--scheme=PB:a"});
  EXPECT_DOUBLE_EQ(args.get_double("bandwidth", 0.0), 320.5);
  EXPECT_EQ(args.get_string("scheme", ""), "PB:a");
}

TEST(ArgParserTest, BooleanFlags) {
  const ArgParser args({"figure", "7", "--csv"});
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get_string("csv", ""), "true");
  EXPECT_FALSE(args.has("plot"));
}

TEST(ArgParserTest, FlagFollowedByFlagIsBoolean) {
  const ArgParser args({"--verbose", "--seed", "7"});
  EXPECT_EQ(args.get_string("verbose", ""), "true");
  EXPECT_EQ(args.get_uint("seed", 0), 7U);
}

TEST(ArgParserTest, UnknownFlagNamesTheFirstStranger) {
  const ArgParser args({"simulate", "--horizn", "10", "--seed=7",
                        "--arrivals", "4", "--verbose"});
  // Every flag declared: nothing to report.
  EXPECT_EQ(args.unknown_flag({"horizn", "seed", "arrivals", "verbose"}),
            std::nullopt);
  // The misspelling, whatever its syntax; positionals never count.
  EXPECT_EQ(args.unknown_flag({"horizon", "seed", "arrivals", "verbose"}),
            "horizn");
  EXPECT_EQ(args.unknown_flag({"horizn", "arrivals", "verbose"}), "seed");
  EXPECT_EQ(args.unknown_flag({"horizn", "seed", "arrivals"}), "verbose");
  // Several strangers: the first in name order, so the report is stable.
  EXPECT_EQ(args.unknown_flag({}), "arrivals");
  // No flags at all is always fine.
  EXPECT_EQ(ArgParser({"simulate"}).unknown_flag({}), std::nullopt);
}

TEST(ArgParserTest, RejectsRepeatedFlag) {
  // Neither value silently wins, whichever syntax either occurrence uses.
  for (const std::vector<std::string>& argv :
       {std::vector<std::string>{"simulate", "--x", "1", "--x", "2"},
        std::vector<std::string>{"simulate", "--x=1", "--x", "2"},
        std::vector<std::string>{"--x", "--y", "3", "--x"}}) {
    try {
      const ArgParser args(argv);
      ADD_FAILURE() << "a repeated --x was accepted";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("--x is given more than once"),
                std::string::npos)
          << e.what();
    }
  }
  // Distinct flags, and a repeated positional, are fine.
  const ArgParser args({"simulate", "--x", "1", "--y=1", "simulate"});
  EXPECT_EQ(args.get_int("x", 0), 1);
  EXPECT_EQ(args.get_int("y", 0), 1);
  EXPECT_EQ(args.positional_count(), 2U);
}

TEST(ArgParserTest, Defaults) {
  const ArgParser args(std::vector<std::string>{});
  EXPECT_EQ(args.positional_count(), 0U);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(args.get_int("missing", -3), -3);
  EXPECT_EQ(args.get_string("missing", "x"), "x");
}

TEST(ArgParserTest, UintAcceptsInf) {
  const ArgParser args({"--width", "inf"});
  EXPECT_EQ(args.get_uint("width", 0), static_cast<std::uint64_t>(-1));
}

TEST(ArgParserTest, RejectsJunkNumbers) {
  const ArgParser args({"--bandwidth", "fast", "--count", "3x"});
  EXPECT_THROW((void)args.get_double("bandwidth", 0.0), ContractViolation);
  EXPECT_THROW((void)args.get_int("count", 0), ContractViolation);
  EXPECT_THROW((void)args.get_uint("count", 0), ContractViolation);
}

TEST(ArgParserTest, RejectsNonFiniteNumbers) {
  // strtod reads all four; none is a usable flag value (an inf or nan
  // horizon never terminates a run).
  for (const std::string text : {"inf", "-inf", "nan", "1e999"}) {
    const ArgParser args({"--horizon", text, "--regions", "400," + text});
    try {
      (void)args.get_double("horizon", 1.0);
      ADD_FAILURE() << "get_double accepted '" << text << "'";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--horizon expects a finite number, got '" + text +
                          "'"),
                std::string::npos)
          << what;
    }
    try {
      (void)args.get_double_list("regions", {});
      ADD_FAILURE() << "get_double_list accepted '" << text << "'";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("element 2 must be a finite number, got '" + text +
                          "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST(ArgParserTest, DoubleListParsesElements) {
  const ArgParser args({"--regions", "400,300.5,300"});
  const auto regions = args.get_double_list("regions", {});
  ASSERT_EQ(regions.size(), 3U);
  EXPECT_DOUBLE_EQ(regions[0], 400.0);
  EXPECT_DOUBLE_EQ(regions[1], 300.5);
  EXPECT_DOUBLE_EQ(regions[2], 300.0);
}

TEST(ArgParserTest, UintListParsesElements) {
  const ArgParser args({"--channels=120,80,40"});
  const auto channels = args.get_uint_list("channels", {});
  ASSERT_EQ(channels.size(), 3U);
  EXPECT_EQ(channels[0], 120U);
  EXPECT_EQ(channels[1], 80U);
  EXPECT_EQ(channels[2], 40U);
}

TEST(ArgParserTest, ListSingleElementAndFallback) {
  const ArgParser args({"--regions", "250"});
  EXPECT_EQ(args.get_double_list("regions", {}).size(), 1U);
  const auto fallback = args.get_uint_list("missing", {7, 8});
  ASSERT_EQ(fallback.size(), 2U);
  EXPECT_EQ(fallback[0], 7U);
}

TEST(ArgParserTest, ListRejectsEmptyValue) {
  const ArgParser args({"--regions="});
  EXPECT_THROW((void)args.get_double_list("regions", {}), ContractViolation);
  EXPECT_THROW((void)args.get_uint_list("regions", {}), ContractViolation);
}

TEST(ArgParserTest, ListRejectsTrailingComma) {
  const ArgParser args({"--regions", "400,300,"});
  EXPECT_THROW((void)args.get_double_list("regions", {}), ContractViolation);
  const ArgParser dbl({"--regions", "400,,300"});
  EXPECT_THROW((void)dbl.get_uint_list("regions", {}), ContractViolation);
}

TEST(ArgParserTest, ListErrorNamesTheBadElement) {
  const ArgParser args({"--regions", "400,fast,300"});
  try {
    (void)args.get_double_list("regions", {});
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("element 2"), std::string::npos) << what;
    EXPECT_NE(what.find("'fast'"), std::string::npos) << what;
    EXPECT_NE(what.find("regions"), std::string::npos) << what;
  }
  const ArgParser neg({"--channels", "12,-3"});
  EXPECT_THROW((void)neg.get_uint_list("channels", {}), ContractViolation);
}

TEST(ArgParserTest, RejectsBareDoubleDash) {
  EXPECT_THROW(ArgParser({"--"}), ContractViolation);
}

TEST(ArgParserTest, PositionalBoundsChecked) {
  const ArgParser args({"one"});
  EXPECT_THROW((void)args.positional(1), ContractViolation);
}

TEST(ArgParserTest, ArgvConstructorSkipsProgramName) {
  const char* argv[] = {"vodbcast", "table", "--bandwidth", "320"};
  const ArgParser args(4, argv);
  EXPECT_EQ(args.positional_count(), 1U);
  EXPECT_EQ(args.positional(0), "table");
  EXPECT_DOUBLE_EQ(args.get_double("bandwidth", 0.0), 320.0);
}

TEST(ArgParserTest, NegativeNumbersAreValues) {
  const ArgParser args({"--offset", "-5"});
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

}  // namespace
}  // namespace vodbcast::util
