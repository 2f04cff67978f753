// Per-layer cost ledger for the traced runs.
//
// The benchmark opens a Scope around every call it makes into a layer's
// public function. Each layer accumulates *self* time (its spans minus the
// child spans nested inside them) and a call count at the same boundary.
// Every clock read costs time that is not the layer's: the ledger measures
// that cost once at construction and takes it off each span, so a cheap
// call (a Distribution::add) is not billed for the clock around it.
//
// Spans are kept in memory for a deterministic 1-in-kSessionSample sample of
// sessions (arrival ordinals), plus every span opened outside a session, and
// written out as JSONL when the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace metrobench {

enum class Layer : std::uint8_t {
  kWorkload,
  kEngine,
  kServer,
  kClient,
  kStats,
  kObs,
  kEstimator,
  kAllocator,
  kPlacement,
  kGen,
  kMerge,
  kRoute,
  kAccount,
  kFold,
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Ledger {
 public:
  /// Spans of sessions whose ordinal is a multiple of this are kept.
  static constexpr std::uint64_t kSessionSample = 4096;
  static constexpr std::uint64_t kNoSession = ~std::uint64_t{0};

  Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  class Scope {
   public:
    Scope(Ledger& ledger, Layer layer) : ledger_(ledger) {
      ledger_.open(layer);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { ledger_.close(); }

   private:
    Ledger& ledger_;
  };

  /// Tags the spans opened from now on with `session` (kNoSession: none).
  void set_session(std::uint64_t session) noexcept { session_ = session; }

  [[nodiscard]] double busy_s(Layer layer) const noexcept {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const noexcept {
    return calls_[static_cast<std::size_t>(layer)];
  }
  /// Sum of busy_s over every layer.
  [[nodiscard]] double total_busy_s() const noexcept;
  /// What one clock read costs; a span timed by hand carries one.
  [[nodiscard]] std::int64_t clock_cost_ns() const noexcept {
    return clock_cost_ns_;
  }

  /// One JSON object per kept span, in closing order. Returns false when
  /// the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t children;
  };
  struct Kept {
    Layer layer;
    std::uint32_t depth;
    std::uint64_t session;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t self_ns;
  };

  void open(Layer layer);
  void close();

  std::int64_t origin_ns_ = 0;
  std::int64_t clock_cost_ns_ = 0;
  std::uint64_t session_ = kNoSession;
  std::vector<Open> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> calls_{};
  std::vector<Kept> kept_;
};

}  // namespace metrobench
