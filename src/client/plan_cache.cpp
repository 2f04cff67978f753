#include "client/plan_cache.hpp"

#include "util/contracts.hpp"

namespace vodbcast::client {

ReceptionPlan PlanView::materialize() const {
  ReceptionPlan plan = *base_;
  plan.playback_start += shift_;
  for (auto& d : plan.downloads) {
    d.start += shift_;
    d.deadline += shift_;
  }
  auto points = plan.trace.points();
  for (auto& p : points) {
    p.time += shift_;
  }
  plan.trace = BufferTrace(std::move(points));
  return plan;
}

namespace {

/// Heap bytes one cached plan retains beyond its own footprint.
std::size_t plan_bytes(const ReceptionPlan& plan) {
  return sizeof(ReceptionPlan) +
         plan.downloads.capacity() * sizeof(SegmentDownload) +
         plan.trace.points().capacity() * sizeof(BufferPoint);
}

}  // namespace

PlanCache::PlanCache(const series::SegmentLayout& layout,
                     std::uint64_t max_entries)
    : layout_(layout) {
  const auto period = phase_period(layout, max_entries);
  if (period.has_value()) {
    period_ = *period;
    summaries_.resize(static_cast<std::size_t>(period_));
    stats_.bytes = summaries_.capacity() * sizeof(PlanSummary);
  }
}

bool PlanCache::contains(std::uint64_t t0) const noexcept {
  if (slots_.empty()) {
    return false;
  }
  return slots_[static_cast<std::size_t>(t0 % period_)] != nullptr;
}

PlanView PlanCache::at(std::uint64_t t0) {
  if (period_ == 0) {
    ++stats_.misses;
    scratch_ = plan_reception(layout_, t0);
    return PlanView(scratch_, 0, false);
  }
  if (slots_.empty()) {
    slots_.resize(static_cast<std::size_t>(period_));
  }
  const std::uint64_t phase = t0 % period_;
  auto& slot = slots_[static_cast<std::size_t>(phase)];
  const bool hit = slot != nullptr;
  if (hit) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    slot = std::make_unique<ReceptionPlan>(plan_reception(layout_, phase));
    summaries_[static_cast<std::size_t>(phase)] = slot->summary();
    ++stats_.entries;
    stats_.bytes += plan_bytes(*slot);
  }
  return PlanView(*slot, t0 - phase, hit);
}

PlanSummary PlanCache::summary(std::uint64_t t0) {
  if (period_ == 0) {
    ++stats_.misses;
    return plan_summary(layout_, t0);
  }
  const std::uint64_t phase = t0 % period_;
  PlanSummary& entry = summaries_[static_cast<std::size_t>(phase)];
  if (entry.max_concurrent_downloads != 0) {
    ++stats_.hits;
    return entry;
  }
  ++stats_.misses;
  entry = plan_summary(layout_, phase);
  VB_ASSERT(entry.max_concurrent_downloads != 0);
  return entry;
}

}  // namespace vodbcast::client
