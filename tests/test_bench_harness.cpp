// bench::Session + the vodbcast-bench-v1 result schema and its diff engine:
// the write -> parse round trip tools/bench_diff depends on, the quantile
// math, and the regression/noise-band verdicts.
#include "harness/harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_result.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace vodbcast {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// TimingStats

TEST(TimingStatsTest, OrderStatisticsWithInterpolation) {
  const auto stats =
      obs::TimingStats::from_samples({50.0, 10.0, 40.0, 20.0, 30.0});
  EXPECT_EQ(stats.samples, 5U);
  EXPECT_DOUBLE_EQ(stats.min, 10.0);
  EXPECT_DOUBLE_EQ(stats.max, 50.0);
  EXPECT_DOUBLE_EQ(stats.mean, 30.0);
  EXPECT_DOUBLE_EQ(stats.p50, 30.0);
  // rank = q * (n-1): p95 -> 3.8 -> 40 + 0.8*(50-40); p99 -> 3.96.
  EXPECT_DOUBLE_EQ(stats.p95, 48.0);
  EXPECT_DOUBLE_EQ(stats.p99, 49.6);
}

TEST(TimingStatsTest, SingleSampleAndEmpty) {
  const auto one = obs::TimingStats::from_samples({7.0});
  EXPECT_EQ(one.samples, 1U);
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
  const auto none = obs::TimingStats::from_samples({});
  EXPECT_EQ(none.samples, 0U);
  EXPECT_DOUBLE_EQ(none.p50, 0.0);
}

// ---------------------------------------------------------------------------
// Result schema round trip

obs::BenchCaseResult make_case(const std::string& name, double p50) {
  obs::BenchCaseResult c;
  c.name = name;
  c.reps = 5;
  c.warmup = 1;
  c.wall_ns = obs::TimingStats::from_samples({p50, p50, p50, p50, p50});
  c.cpu_ns = c.wall_ns;
  return c;
}

obs::BenchRunResult make_run(const std::string& bench,
                             std::vector<obs::BenchCaseResult> cases) {
  obs::BenchRunResult run;
  run.bench = bench;
  run.git_sha = "abc123";
  run.build_type = "RelWithDebInfo";
  run.compiler = "GNU 12.2.0";
  run.build_flags = "-O2 -g -DNDEBUG";
  run.host_threads = 16;
  run.wall_ms = 12.5;
  run.cases = std::move(cases);
  run.trace_capacity = 65536;
  run.metrics = util::json::parse(R"({"counters":{"sim.clients":100}})");
  return run;
}

TEST(BenchResultTest, JsonRoundTrip) {
  const auto original =
      make_run("fig7_access_latency", {make_case("figure7", 1234.5)});
  const auto parsed = obs::parse_bench_result(original.to_json());
  EXPECT_EQ(parsed.bench, original.bench);
  EXPECT_EQ(parsed.git_sha, original.git_sha);
  EXPECT_EQ(parsed.build_type, original.build_type);
  EXPECT_EQ(parsed.compiler, original.compiler);
  EXPECT_EQ(parsed.build_flags, original.build_flags);
  EXPECT_EQ(parsed.sanitize, original.sanitize);
  EXPECT_EQ(parsed.host_threads, 16);
  EXPECT_DOUBLE_EQ(parsed.wall_ms, original.wall_ms);
  ASSERT_EQ(parsed.cases.size(), 1U);
  EXPECT_EQ(parsed.cases[0].name, "figure7");
  EXPECT_EQ(parsed.cases[0].reps, 5);
  EXPECT_EQ(parsed.cases[0].warmup, 1);
  EXPECT_DOUBLE_EQ(parsed.cases[0].wall_ns.p50, 1234.5);
  EXPECT_DOUBLE_EQ(parsed.cases[0].wall_ns.p99, 1234.5);
  EXPECT_EQ(parsed.trace_capacity, 65536U);
  EXPECT_DOUBLE_EQ(
      parsed.metrics.at("counters").at("sim.clients").as_number(), 100.0);
  // The serialized form must itself be a fixed point.
  EXPECT_EQ(obs::parse_bench_result(parsed.to_json()).to_json(),
            parsed.to_json());
}

TEST(BenchResultTest, RejectsWrongSchemaAndMalformedJson) {
  EXPECT_THROW((void)obs::parse_bench_result(R"({"schema":"v999"})"),
               util::ContractViolation);
  EXPECT_THROW((void)obs::parse_bench_result("{nope"),
               util::json::ParseError);
}

// ---------------------------------------------------------------------------
// Session: times cases and writes a parsable BENCH_<name>.json

class SessionFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "vodbcast_test_bench_harness";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // The harness consults these before argv; pin them so ambient CI
    // settings (VODBCAST_BENCH_QUICK=1) don't skew the expectations.
    ::unsetenv("VODBCAST_BENCH_OUT");
    ::unsetenv("VODBCAST_BENCH_REPS");
    ::unsetenv("VODBCAST_BENCH_WARMUP");
    ::unsetenv("VODBCAST_BENCH_QUICK");
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(SessionFileTest, WritesParsableResultWithRecordedCases) {
  const std::string out_flag = "--bench-out=" + dir_.string();
  const char* argv[] = {"test_bench_harness", out_flag.c_str(),
                        "--bench-reps=3", "--bench-warmup=0"};
  std::string result_path;
  {
    bench::Session session("harness_selftest", 4, argv);
    EXPECT_EQ(session.default_reps(), 3);
    EXPECT_EQ(session.default_warmup(), 0);
    result_path = session.result_path();
    session.metrics().counter("selftest.calls").add(2);
    int calls = 0;
    const int answer = session.run("returns_value", [&calls] {
      ++calls;
      return 41 + 1;
    });
    EXPECT_EQ(answer, 42);
    EXPECT_EQ(calls, 3);  // reps only; warmup=0
    session.run("void_case", [] {}, {.reps = 2, .warmup = 1});
  }  // destructor writes the file

  std::ifstream in(result_path);
  ASSERT_TRUE(in) << result_path;
  std::ostringstream text;
  text << in.rdbuf();
  const auto parsed = obs::parse_bench_result(text.str());
  EXPECT_EQ(parsed.bench, "harness_selftest");
  EXPECT_FALSE(parsed.timestamp.empty());
  // Provenance: the harness stamps the host's hardware concurrency.
  EXPECT_GE(parsed.host_threads, 1);
  ASSERT_EQ(parsed.cases.size(), 2U);
  EXPECT_EQ(parsed.cases[0].name, "returns_value");
  EXPECT_EQ(parsed.cases[0].reps, 3);
  EXPECT_EQ(parsed.cases[0].wall_ns.samples, 3U);
  EXPECT_GE(parsed.cases[0].wall_ns.p50, 0.0);
  EXPECT_LE(parsed.cases[0].wall_ns.min, parsed.cases[0].wall_ns.max);
  EXPECT_EQ(parsed.cases[1].name, "void_case");
  EXPECT_EQ(parsed.cases[1].reps, 2);
  EXPECT_EQ(parsed.cases[1].warmup, 1);
  EXPECT_GT(parsed.trace_capacity, 0U);
  EXPECT_DOUBLE_EQ(
      parsed.metrics.at("counters").at("selftest.calls").as_number(), 2.0);
}

TEST_F(SessionFileTest, QuickEnvCollapsesToOneRepZeroWarmup) {
  ::setenv("VODBCAST_BENCH_QUICK", "1", 1);
  ::setenv("VODBCAST_BENCH_OUT", dir_.string().c_str(), 1);
  bench::Session session("harness_quick");
  EXPECT_EQ(session.default_reps(), 1);
  EXPECT_EQ(session.default_warmup(), 0);
  ::unsetenv("VODBCAST_BENCH_QUICK");
}

// ---------------------------------------------------------------------------
// diff_bench_results: verdicts, gates, and notes

TEST(BenchDiffTest, FlagsRegressionBeyondNoiseBand) {
  const auto base = make_run("b", {make_case("hot", 10000.0)});
  const auto cand = make_run("b", {make_case("hot", 12000.0)});  // +20%
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  ASSERT_EQ(report.deltas.size(), 1U);
  EXPECT_EQ(report.deltas[0].verdict, obs::CaseDelta::Verdict::kRegressed);
  EXPECT_NEAR(report.deltas[0].ratio, 1.2, 1e-9);
  EXPECT_TRUE(report.has_regression());
  EXPECT_EQ(report.regressions, 1U);
}

TEST(BenchDiffTest, CountsImprovementWithoutGating) {
  const auto base = make_run("b", {make_case("hot", 10000.0)});
  const auto cand = make_run("b", {make_case("hot", 8000.0)});  // -20%
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  EXPECT_EQ(report.deltas[0].verdict, obs::CaseDelta::Verdict::kImproved);
  EXPECT_FALSE(report.has_regression());
  EXPECT_EQ(report.improvements, 1U);
}

TEST(BenchDiffTest, NoiseBandIsUnchanged) {
  const auto base = make_run("b", {make_case("hot", 10000.0)});
  const auto cand = make_run("b", {make_case("hot", 10400.0)});  // +4% < 5%
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  EXPECT_EQ(report.deltas[0].verdict, obs::CaseDelta::Verdict::kUnchanged);
  EXPECT_FALSE(report.has_regression());

  obs::DiffOptions tight;
  tight.noise_threshold = 0.02;
  const auto strict = obs::diff_bench_results({base}, {cand}, tight);
  EXPECT_TRUE(strict.has_regression());  // same +4% gates at 2%
}

TEST(BenchDiffTest, SubMinTimeCasesNeverGate) {
  // 500ns baseline doubles — still below the 1000ns comparability floor.
  const auto base = make_run("b", {make_case("tiny", 500.0)});
  const auto cand = make_run("b", {make_case("tiny", 1000.0)});
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  EXPECT_EQ(report.deltas[0].verdict, obs::CaseDelta::Verdict::kUnchanged);
  EXPECT_FALSE(report.has_regression());

  obs::DiffOptions floor_off;
  floor_off.min_time_ns = 0.0;
  EXPECT_TRUE(
      obs::diff_bench_results({base}, {cand}, floor_off).has_regression());
}

TEST(BenchDiffTest, MissingAndNewCasesAreReportedNotGated) {
  const auto base =
      make_run("b", {make_case("kept", 10000.0), make_case("gone", 10000.0)});
  const auto cand =
      make_run("b", {make_case("kept", 10000.0), make_case("added", 10000.0)});
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  ASSERT_EQ(report.deltas.size(), 3U);
  EXPECT_FALSE(report.has_regression());
  std::size_t only_base = 0;
  std::size_t only_cand = 0;
  for (const auto& d : report.deltas) {
    only_base += d.verdict == obs::CaseDelta::Verdict::kOnlyBase ? 1U : 0U;
    only_cand += d.verdict == obs::CaseDelta::Verdict::kOnlyCand ? 1U : 0U;
  }
  EXPECT_EQ(only_base, 1U);
  EXPECT_EQ(only_cand, 1U);
}

TEST(BenchDiffTest, DisjointBenchesBecomeNotes) {
  const auto base = make_run("old_bench", {make_case("c", 10000.0)});
  const auto cand = make_run("new_bench", {make_case("c", 10000.0)});
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  EXPECT_TRUE(report.deltas.empty());
  EXPECT_FALSE(report.has_regression());
  ASSERT_EQ(report.notes.size(), 2U);
  EXPECT_NE(report.notes[0].find("missing from candidate"), std::string::npos);
  EXPECT_NE(report.notes[1].find("new in candidate"), std::string::npos);
}

TEST(BenchDiffTest, CounterDriftAndTraceDropsBecomeNotes) {
  auto base = make_run("b", {make_case("c", 10000.0)});
  auto cand = make_run("b", {make_case("c", 10000.0)});
  cand.metrics = util::json::parse(R"({"counters":{"sim.clients":99}})");
  cand.trace_dropped = 7;
  const auto report = obs::diff_bench_results({base}, {cand}, {});
  EXPECT_FALSE(report.has_regression());
  ASSERT_EQ(report.notes.size(), 2U);
  EXPECT_NE(report.notes[0].find("sim.clients"), std::string::npos);
  EXPECT_NE(report.notes[1].find("dropped 7"), std::string::npos);
}

TEST(BenchDiffTest, SelfDiffIsCleanAndRenders) {
  const auto run = make_run("b", {make_case("c", 10000.0)});
  const auto report = obs::diff_bench_results({run}, {run}, {});
  EXPECT_FALSE(report.has_regression());
  EXPECT_TRUE(report.notes.empty());
  const auto text = report.render();
  EXPECT_NE(text.find("0 regression(s)"), std::string::npos);
  EXPECT_NE(text.find("+0.0%"), std::string::npos);
}

// ---------------------------------------------------------------------------
// diff_bench_pairs: N alternating pairs

/// N alternating pairs (baseline, candidate) of a synthetic two-case suite,
/// "steady" at 10 us and "slow" at 50 us. The host's speed drifts by up to
/// +/-5% from pair to pair, each run adds up to +/-1% of its own, and the
/// candidate runs "slow" `slowdown` times longer.
std::vector<std::vector<obs::BenchRunResult>> alternating_pairs(
    std::size_t n, double slowdown) {
  util::Rng rng(2024);
  const auto noise = [&rng](double width) {
    return 1.0 + width * (2.0 * rng.next_double() - 1.0);
  };
  std::vector<std::vector<obs::BenchRunResult>> runs;
  for (std::size_t k = 0; k < n; ++k) {
    const double drift = noise(0.05);
    for (const double slow : {1.0, slowdown}) {
      runs.push_back({make_run(
          "b", {make_case("steady", 10000.0 * drift * noise(0.01)),
                make_case("slow", 50000.0 * slow * drift * noise(0.01))})});
    }
  }
  return runs;
}

const obs::PairedCaseDelta& paired_case(const obs::PairedDiffReport& report,
                                        const std::string& name) {
  const auto it = std::find_if(
      report.deltas.begin(), report.deltas.end(),
      [&name](const obs::PairedCaseDelta& d) { return d.name == name; });
  EXPECT_NE(it, report.deltas.end()) << name;
  return *it;
}

TEST(BenchDiffTest, AlternatingAaPairsFlagNothing) {
  const auto report = obs::diff_bench_pairs(alternating_pairs(10, 1.0));
  EXPECT_EQ(report.pairs, 10U);
  ASSERT_EQ(report.deltas.size(), 2U);
  EXPECT_FALSE(report.has_regression());
  EXPECT_EQ(report.improvements, 0U);
  EXPECT_TRUE(report.notes.empty());
  for (const auto& d : report.deltas) {
    EXPECT_EQ(d.pairs, 10U) << d.name;
    EXPECT_EQ(d.verdict, obs::CaseDelta::Verdict::kUnchanged) << d.name;
    EXPECT_NEAR(d.ratio_median, 1.0, 0.02) << d.name;
    EXPECT_GT(d.base_iqr_ns, 0.0) << d.name;
  }
}

TEST(BenchDiffTest, AlternatingPairsFlagATenPercentSlowdown) {
  const auto report = obs::diff_bench_pairs(alternating_pairs(10, 1.10));
  EXPECT_TRUE(report.has_regression());
  EXPECT_EQ(report.regressions, 1U);
  const auto& slow = paired_case(report, "slow");
  EXPECT_EQ(slow.verdict, obs::CaseDelta::Verdict::kRegressed);
  EXPECT_EQ(slow.losses, 10U);
  EXPECT_EQ(slow.wins, 0U);
  EXPECT_NEAR(slow.ratio_median, 1.10, 0.03);
  EXPECT_GT(slow.cand_median_ns - slow.base_median_ns, slow.base_iqr_ns);
  EXPECT_EQ(paired_case(report, "steady").verdict,
            obs::CaseDelta::Verdict::kUnchanged);
  const auto text = report.render();
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("10 pair(s): 1 regression(s)"), std::string::npos);
}

// Losing every pair is not enough: a gap inside the baseline's own spread
// (here the host drifts +/-25% between pairs) does not gate.
TEST(BenchDiffTest, AlternatingPairsNeedTheGapPastTheBaselineIqr) {
  auto runs = alternating_pairs(10, 1.10);
  for (std::size_t k = 0; k < runs.size(); k += 2) {
    const double drift = 0.75 + 0.05 * static_cast<double>(k / 2);
    for (auto* run : {&runs[k], &runs[k + 1]}) {
      for (auto& c : run->front().cases) {
        c.wall_ns.p50 *= drift;
      }
    }
  }
  const auto report = obs::diff_bench_pairs(runs);
  const auto& slow = paired_case(report, "slow");
  EXPECT_EQ(slow.losses, 10U);
  EXPECT_LT(slow.cand_median_ns - slow.base_median_ns, slow.base_iqr_ns);
  EXPECT_EQ(slow.verdict, obs::CaseDelta::Verdict::kUnchanged);
  EXPECT_FALSE(report.has_regression());
}

TEST(BenchDiffTest, AlternatingPairsNoteMissingRunsAndRejectAnOddCount) {
  auto runs = alternating_pairs(3, 1.0);
  runs[3].front().cases.pop_back();  // candidate 2 lost "slow"
  const auto report = obs::diff_bench_pairs(runs);
  EXPECT_EQ(paired_case(report, "slow").pairs, 2U);
  ASSERT_EQ(report.notes.size(), 1U);
  EXPECT_NE(report.notes[0].find("compared in 2 of 3 pairs"),
            std::string::npos);
  runs.pop_back();
  EXPECT_THROW((void)obs::diff_bench_pairs(runs), util::ContractViolation);
}

}  // namespace
}  // namespace vodbcast
