#include "ledger.hpp"

#include <algorithm>
#include <cstdio>

namespace metrobench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kWorkload:
      return "workload";
    case Layer::kEngine:
      return "sim.engine";
    case Layer::kServer:
      return "sim.server";
    case Layer::kClient:
      return "client";
    case Layer::kStats:
      return "sim.stats";
    case Layer::kObs:
      return "obs";
    case Layer::kEstimator:
      return "ctrl.estimator";
    case Layer::kAllocator:
      return "ctrl.allocator";
    case Layer::kPlacement:
      return "metro.placement";
    case Layer::kGen:
      return "metro.gen";
    case Layer::kMerge:
      return "metro.merge";
    case Layer::kRoute:
      return "metro.route";
    case Layer::kAccount:
      return "metro.account";
    case Layer::kFold:
      return "metro.fold";
    case Layer::kCount:
      break;
  }
  return "?";
}

Ledger::Ledger() {
  // The cost of one clock read, as the median gap between back-to-back
  // reads; a span's measured duration carries one such read.
  std::vector<std::int64_t> gaps(20001);
  for (auto& gap : gaps) {
    const std::int64_t a = now_ns();
    gap = now_ns() - a;
  }
  std::nth_element(gaps.begin(), gaps.begin() + 10000, gaps.end());
  clock_cost_ns_ = gaps[10000];
  stack_.reserve(16);
  origin_ns_ = now_ns();
}

void Ledger::open(Layer layer) {
  ++calls_[static_cast<std::size_t>(layer)];
  stack_.push_back(Open{layer, now_ns(), 0, 0});
}

void Ledger::close() {
  const std::int64_t end = now_ns();
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - top.start_ns;
  // Each nested span bills its parent for two clock reads, one of which is
  // already inside the child's own duration.
  const std::int64_t self =
      dur - top.child_ns -
      clock_cost_ns_ * (1 + static_cast<std::int64_t>(top.children));
  self_ns_[static_cast<std::size_t>(top.layer)] += self;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    ++stack_.back().children;
  }
  if (session_ == kNoSession || session_ % kSessionSample == 0) {
    kept_.push_back(Kept{top.layer, static_cast<std::uint32_t>(stack_.size()),
                         session_, top.start_ns - origin_ns_, dur, self});
  }
}

double Ledger::total_busy_s() const noexcept {
  std::int64_t total = 0;
  for (const auto ns : self_ns_) {
    total += ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool Ledger::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const auto& span : kept_) {
    std::fprintf(out,
                 "{\"layer\":\"%s\",\"depth\":%u,\"session\":%lld,"
                 "\"start_ns\":%lld,\"dur_ns\":%lld,\"self_ns\":%lld}\n",
                 layer_name(span.layer), span.depth,
                 span.session == kNoSession
                     ? -1LL
                     : static_cast<long long>(span.session),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.dur_ns),
                 static_cast<long long>(span.self_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace metrobench
