#include "net/reassembly.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace vodbcast::net {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

SegmentReassembler::SegmentReassembler(core::Mbits expected)
    : expected_(expected.v) {
  VB_EXPECTS(expected.v > 0.0);
}

SegmentReassembler::Reach SegmentReassembler::walk(double begin,
                                                   double end) const {
  // The timeline holds, for every covered byte, the earliest send time at
  // which it became covered. Start at the piece holding `begin` and follow
  // contiguous coverage (gaps of at most kEps) until it reaches `end`.
  auto it = std::upper_bound(
      timeline_.begin(), timeline_.end(), begin,
      [](double v, const Piece& p) { return v < p.begin; });
  if (it != timeline_.begin() && (it - 1)->end >= begin - kEps) {
    --it;
  }
  Reach reach{begin, -std::numeric_limits<double>::infinity()};
  for (; it != timeline_.end() && it->begin <= reach.end + kEps; ++it) {
    reach.latest = std::max(reach.latest, it->cover_time);
    reach.end = std::max(reach.end, it->end);
    if (reach.end + kEps >= end) {
      break;
    }
  }
  return reach;
}

void SegmentReassembler::merge_range(double begin, double end, double at) {
  // Pointwise: cover_time over [begin, end] becomes min(existing, at), with
  // holes filled at `at`. Rebuild the overlapped stretch of the timeline.
  auto first = std::upper_bound(
      timeline_.begin(), timeline_.end(), begin,
      [](double v, const Piece& p) { return v < p.begin; });
  if (first != timeline_.begin() && (first - 1)->end > begin + kEps) {
    --first;
  }
  auto last = first;
  while (last != timeline_.end() && last->begin < end - kEps) {
    ++last;
  }

  std::vector<Piece> rebuilt;
  rebuilt.reserve(static_cast<std::size_t>(last - first) + 3);
  const auto emit = [&rebuilt](double b, double e, double cover) {
    if (e - b <= kEps) {
      return;  // sliver from boundary arithmetic; nothing to record
    }
    if (!rebuilt.empty() && rebuilt.back().end + kEps >= b &&
        std::abs(rebuilt.back().cover_time - cover) <= kEps) {
      rebuilt.back().end = std::max(rebuilt.back().end, e);
      return;
    }
    rebuilt.push_back(Piece{b, e, cover});
  };

  double cursor = begin;
  for (auto it = first; it != last; ++it) {
    if (it->begin < begin - kEps) {
      emit(it->begin, std::min(it->end, begin), it->cover_time);
    }
    if (it->begin > cursor + kEps) {
      emit(cursor, it->begin, at);  // hole newly covered by this packet
    }
    const double ov_begin = std::max(it->begin, begin);
    const double ov_end = std::min(it->end, end);
    emit(ov_begin, ov_end, std::min(it->cover_time, at));
    if (it->end > end + kEps) {
      emit(end, it->end, it->cover_time);
    }
    cursor = std::max(cursor, std::min(it->end, end));
  }
  if (cursor < end - kEps) {
    emit(cursor, end, at);
  }

  const auto pos = timeline_.erase(first, last);
  timeline_.insert(pos, rebuilt.begin(), rebuilt.end());
}

void SegmentReassembler::accept(const Packet& packet) {
  const double begin = packet.offset.v;
  const double end = packet.offset.v + packet.payload.v;
  VB_EXPECTS_MSG(begin >= -kEps && end <= expected_ + kEps,
                 "packet outside the segment");
  VB_EXPECTS(packet.payload.v > 0.0);
  // A packet whose bytes were already covered at its own send time can
  // change neither the coverage nor any availability answer: drop it. This
  // is what bounds the log under duplicate/retransmission storms.
  const Reach reach = walk(begin, end);
  if (reach.end + kEps >= end &&
      reach.latest <= packet.send_time.v + kEps) {
    return;
  }
  ++retained_;
  merge_range(begin, end, packet.send_time.v);
}

core::Mbits SegmentReassembler::contiguous_prefix() const {
  return core::Mbits{
      walk(0.0, std::numeric_limits<double>::infinity()).end};
}

core::Mbits SegmentReassembler::received() const {
  double total = 0.0;
  for (const auto& p : timeline_) {
    total += p.end - p.begin;
  }
  return core::Mbits{total};
}

bool SegmentReassembler::complete() const {
  return contiguous_prefix().v >= expected_ - kEps;
}

std::vector<Gap> SegmentReassembler::gaps() const {
  std::vector<Gap> result;
  double cursor = 0.0;
  for (const auto& p : timeline_) {
    if (p.begin > cursor + kEps) {
      result.push_back(Gap{core::Mbits{cursor}, core::Mbits{p.begin}});
    }
    cursor = std::max(cursor, p.end);
  }
  if (cursor < expected_ - kEps) {
    result.push_back(Gap{core::Mbits{cursor}, core::Mbits{expected_}});
  }
  return result;
}

std::optional<core::Minutes> SegmentReassembler::prefix_available_at(
    core::Mbits point) const {
  VB_EXPECTS(point.v >= -kEps && point.v <= expected_ + kEps);
  if (point.v <= kEps) {
    return core::Minutes{0.0};
  }
  return covered_since(core::Mbits{0.0}, point);
}

std::optional<core::Minutes> SegmentReassembler::covered_since(
    core::Mbits begin, core::Mbits end) const {
  VB_EXPECTS(begin.v >= -kEps && end.v <= expected_ + kEps &&
             begin.v <= end.v + kEps);
  // The range closes at the latest earliest-cover time of any byte in it;
  // times are reported from 0 on.
  const Reach reach = walk(begin.v, end.v);
  if (reach.end + kEps < end.v) {
    return std::nullopt;
  }
  return core::Minutes{std::max(0.0, reach.latest)};
}

}  // namespace vodbcast::net
