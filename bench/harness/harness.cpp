#include "harness/harness.hpp"

#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

#include <cstdlib>
#include <cstring>

#include "obs/log.hpp"
#include "util/contracts.hpp"

// Build provenance is injected by bench/CMakeLists.txt at configure time;
// the fallbacks keep the file compiling standalone (e.g. in tooling builds).
#ifndef VODBCAST_GIT_SHA
#define VODBCAST_GIT_SHA "unknown"
#endif
#ifndef VODBCAST_BUILD_TYPE
#define VODBCAST_BUILD_TYPE ""
#endif
#ifndef VODBCAST_BUILD_FLAGS
#define VODBCAST_BUILD_FLAGS ""
#endif
#ifndef VODBCAST_COMPILER
#define VODBCAST_COMPILER ""
#endif
#ifndef VODBCAST_SANITIZE_BUILD
#define VODBCAST_SANITIZE_BUILD 0
#endif

namespace vodbcast::bench {

namespace {

std::string iso_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

int env_int_or(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoi(v) : fallback;
}

/// Loose scan for one `--flag=value` anywhere in argv; the bench binaries
/// have no other flags, and the micro benches hand us argv only after
/// google-benchmark consumed its own.
std::optional<std::string> flag_value(int argc, const char* const* argv,
                                      const char* flag) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::nullopt;
}

}  // namespace

Session::Session(std::string name, int argc, const char* const* argv)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  out_dir_ = env_or("VODBCAST_BENCH_OUT", ".");
  quick_ = env_int_or("VODBCAST_BENCH_QUICK", 0) != 0;
  if (quick_) {
    reps_ = 1;
    warmup_ = 0;
  }
  reps_ = env_int_or("VODBCAST_BENCH_REPS", reps_);
  warmup_ = env_int_or("VODBCAST_BENCH_WARMUP", warmup_);
  threads_ = env_int_or("VODBCAST_BENCH_THREADS", threads_);
  if (argv != nullptr) {
    if (const auto v = flag_value(argc, argv, "--bench-out")) {
      out_dir_ = *v;
    }
    if (const auto v = flag_value(argc, argv, "--bench-reps")) {
      reps_ = std::atoi(v->c_str());
    }
    if (const auto v = flag_value(argc, argv, "--bench-warmup")) {
      warmup_ = std::atoi(v->c_str());
    }
    if (const auto v = flag_value(argc, argv, "--threads")) {
      threads_ = std::atoi(v->c_str());
    }
  }
  VB_EXPECTS_MSG(reps_ >= 1, "bench harness: reps must be >= 1");
  VB_EXPECTS_MSG(warmup_ >= 0, "bench harness: warmup must be >= 0");
  VB_EXPECTS_MSG(threads_ >= 1, "bench harness: threads must be >= 1");
}

Session::~Session() { write_result(); }

std::string Session::result_path() const {
  return (std::filesystem::path(out_dir_) / ("BENCH_" + name_ + ".json"))
      .string();
}

void Session::record_case(obs::BenchCaseResult result) {
  cases_.push_back(std::move(result));
}

util::TaskPool* Session::pool() {
  if (threads_ <= 1) {
    return nullptr;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::TaskPool>(
        static_cast<unsigned>(threads_));
  }
  return pool_.get();
}

double Session::wall_now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Session::cpu_now_ns() {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
#else
  return static_cast<double>(std::clock()) /
         static_cast<double>(CLOCKS_PER_SEC) * 1e9;
#endif
}

obs::BenchCaseResult Session::make_case(const std::string& name, int reps,
                                        int warmup, std::vector<double> wall,
                                        std::vector<double> cpu) {
  obs::BenchCaseResult result;
  result.name = name;
  result.reps = reps;
  result.warmup = warmup;
  result.wall_ns = obs::TimingStats::from_samples(std::move(wall));
  result.cpu_ns = obs::TimingStats::from_samples(std::move(cpu));
  return result;
}

void Session::write_result() {
  obs::BenchRunResult result;
  result.bench = name_;
  result.timestamp = iso_utc_now();
  result.git_sha = env_or("VODBCAST_GIT_SHA", VODBCAST_GIT_SHA);
  result.build_type = VODBCAST_BUILD_TYPE;
  result.compiler = VODBCAST_COMPILER;
  result.build_flags = VODBCAST_BUILD_FLAGS;
  result.sanitize = VODBCAST_SANITIZE_BUILD != 0;
  result.threads = threads_;
  result.host_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  result.wall_ms =
      static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
                              .count()) /
      1e3;
  result.cases = cases_;
  obs::publish_drop_metrics(sink_);
  result.trace_recorded = sink_.trace.recorded();
  result.trace_dropped = sink_.trace.dropped();
  result.trace_capacity = sink_.trace.capacity();
  result.metrics = util::json::parse(sink_.metrics.to_json());

  const std::string path = result_path();
  std::error_code ec;
  std::filesystem::create_directories(out_dir_, ec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) {
    out << result.to_json();
    out.close();  // flushes, so a full device fails here, not silently
  }
  if (!out) {
    obs::logf(obs::LogLevel::kWarn,
              "bench harness: cannot write %s — result dropped",
              path.c_str());
  }
}

}  // namespace vodbcast::bench
