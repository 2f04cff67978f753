// Shared measurement harness for the bench/ binaries.
//
// A Session wraps one bench binary: it owns the obs::Sink the bench records
// into, times named cases (warmup + repetitions, wall and CPU clocks,
// p50/p95/p99 over the reps), keeps the human tables on stdout untouched,
// and at exit writes one machine-readable BENCH_<name>.json (schema
// "vodbcast-bench-v1", see src/obs/bench_result.hpp) carrying the cases,
// the wall time, the trace counts and the sink's metrics.
//
//   int main(int argc, char** argv) {
//     vodbcast::bench::Session session("fig7_access_latency", argc, argv);
//     const auto figure = session.run("figure7", [] {
//       return vodbcast::analysis::figure7_access_latency();
//     });
//     std::puts(figure.table.c_str());   // print once, outside the timing
//     return 0;
//   }
//
// Knobs (flag first, then environment, then default):
//   --bench-out=DIR   VODBCAST_BENCH_OUT      result directory (default ".")
//   --bench-reps=N    VODBCAST_BENCH_REPS     repetitions per case (default 5)
//   --bench-warmup=N  VODBCAST_BENCH_WARMUP   warmup runs per case (default 1)
//   --threads=N       VODBCAST_BENCH_THREADS  TaskPool workers handed to
//                                             pool-aware cases (default 1;
//                                             results are identical, only
//                                             wall time changes)
//                     VODBCAST_BENCH_QUICK=1  reps=1, warmup=0 (CI smoke)
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/bench_result.hpp"
#include "obs/sink.hpp"
#include "util/task_pool.hpp"

namespace vodbcast::bench {

struct CaseOptions {
  int reps = 0;     ///< 0: use the session default
  int warmup = -1;  ///< negative: use the session default
};

class Session {
 public:
  /// `name` should match the binary, e.g. "fig7_access_latency"; argv (when
  /// given) may carry --bench-out/--bench-reps/--bench-warmup anywhere.
  explicit Session(std::string name, int argc = 0,
                   const char* const* argv = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Writes BENCH_<name>.json into the output directory.
  ~Session();

  [[nodiscard]] obs::Sink& sink() noexcept { return sink_; }
  [[nodiscard]] obs::Registry& metrics() noexcept { return sink_.metrics; }

  [[nodiscard]] int default_reps() const noexcept { return reps_; }
  [[nodiscard]] int default_warmup() const noexcept { return warmup_; }
  [[nodiscard]] int threads() const noexcept { return threads_; }
  /// VODBCAST_BENCH_QUICK is a non-zero integer: a CI smoke run, which
  /// campaign benches also scale down.
  [[nodiscard]] bool quick() const noexcept { return quick_; }

  /// Lazily-built worker pool for pool-aware cases: null when --threads
  /// (or VODBCAST_BENCH_THREADS) is 1 — the serial path, no pool overhead —
  /// else a TaskPool of that many workers, built on first use and shared by
  /// every case in the session.
  [[nodiscard]] util::TaskPool* pool();
  [[nodiscard]] const std::string& out_dir() const noexcept {
    return out_dir_;
  }
  [[nodiscard]] std::string result_path() const;

  /// Times `fn` (warmup discarded, then `reps` measured invocations) and
  /// records the case. Returns the last invocation's result so benches
  /// compute inside the timed region and print outside it.
  template <typename Fn>
  auto run(const std::string& case_name, Fn&& fn, CaseOptions options = {}) {
    const int reps = options.reps > 0 ? options.reps : reps_;
    const int warmup = options.warmup >= 0 ? options.warmup : warmup_;
    for (int i = 0; i < warmup; ++i) {
      (void)fn();
    }
    std::vector<double> wall;
    std::vector<double> cpu;
    wall.reserve(static_cast<std::size_t>(reps));
    cpu.reserve(static_cast<std::size_t>(reps));
    using Result = std::invoke_result_t<Fn&>;
    if constexpr (std::is_void_v<Result>) {
      for (int i = 0; i < reps; ++i) {
        const double w0 = wall_now_ns();
        const double c0 = cpu_now_ns();
        fn();
        cpu.push_back(cpu_now_ns() - c0);
        wall.push_back(wall_now_ns() - w0);
      }
      record_case(make_case(case_name, reps, warmup, std::move(wall),
                            std::move(cpu)));
    } else {
      std::optional<Result> last;
      for (int i = 0; i < reps; ++i) {
        last.reset();
        const double w0 = wall_now_ns();
        const double c0 = cpu_now_ns();
        last.emplace(fn());
        cpu.push_back(cpu_now_ns() - c0);
        wall.push_back(wall_now_ns() - w0);
      }
      record_case(make_case(case_name, reps, warmup, std::move(wall),
                            std::move(cpu)));
      return std::move(*last);
    }
  }

  /// Records an externally-timed case (the google-benchmark bridge).
  void record_case(obs::BenchCaseResult result);

  /// Clocks used by run(); exposed for the bridge and tests.
  [[nodiscard]] static double wall_now_ns();
  [[nodiscard]] static double cpu_now_ns();

 private:
  static obs::BenchCaseResult make_case(const std::string& name, int reps,
                                        int warmup, std::vector<double> wall,
                                        std::vector<double> cpu);
  void write_result();

  std::string name_;
  std::string out_dir_;
  int reps_ = 5;
  int warmup_ = 1;
  int threads_ = 1;
  bool quick_ = false;
  obs::Sink sink_;
  std::unique_ptr<util::TaskPool> pool_;
  std::vector<obs::BenchCaseResult> cases_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vodbcast::bench
