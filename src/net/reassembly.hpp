// Segment reassembly at the client.
//
// A tuner delivers the packets of one segment transmission; the reassembler
// tracks which byte ranges arrived, reports the contiguous prefix (what the
// player may consume), and diagnoses holes so a jitter-free verdict can be
// made against the playback deadline.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace vodbcast::net {

/// A missing byte range of the segment.
struct Gap {
  core::Mbits begin{0.0};
  core::Mbits end{0.0};
};

class SegmentReassembler {
 public:
  /// `expected` is the full segment size.
  explicit SegmentReassembler(core::Mbits expected);

  /// Accepts one packet; out-of-order and duplicate delivery are fine.
  /// Packets beyond the expected size are rejected (contract violation).
  /// Coverage is coalesced incrementally (no deferred re-sort), and a
  /// packet adding no coverage beyond what earlier-or-equal send times
  /// already provide is dropped, keeping memory bounded under duplicate
  /// or retransmission storms.
  void accept(const Packet& packet);

  /// Length of the contiguous prefix received so far.
  [[nodiscard]] core::Mbits contiguous_prefix() const;

  /// Total bytes received (ignoring order).
  [[nodiscard]] core::Mbits received() const;

  /// True once every byte of the segment has arrived.
  [[nodiscard]] bool complete() const;

  /// The missing ranges, in order.
  [[nodiscard]] std::vector<Gap> gaps() const;

  /// Send time of the packet that completed the prefix up to `point`, i.e.
  /// when the player could first read through `point`; nullopt while the
  /// prefix has not reached it.
  [[nodiscard]] std::optional<core::Minutes> prefix_available_at(
      core::Mbits point) const;

  /// Earliest time at which `[begin, end]` was fully covered — the heal
  /// instant of a repaired hole; nullopt while any byte of it is missing.
  [[nodiscard]] std::optional<core::Minutes> covered_since(
      core::Mbits begin, core::Mbits end) const;

  /// Packets retained in the availability log. Duplicates and retransmits
  /// whose range was already covered at their send time are dropped on
  /// accept(), so this stays bounded by the distinct coverage — a
  /// duplicate storm does not grow it.
  [[nodiscard]] std::size_t retained_packets() const noexcept {
    return retained_;
  }

 private:
  /// One piece of the coverage timeline: the bytes `[begin, end]` first
  /// became fully available at `cover_time` (the earliest send_time of any
  /// retained packet covering them). The timeline is sorted by begin and
  /// disjoint; adjacent pieces are fused only when their cover times agree,
  /// so its length is bounded by the distinct coverage, not by the number
  /// of packets accepted.
  struct Piece {
    double begin;
    double end;
    double cover_time;
  };

  /// How far contiguous coverage reaches from `begin` towards `end`, and
  /// the latest cover time of the pieces it crossed.
  struct Reach {
    double end;
    double latest;
  };

  /// The one coverage walk: from the piece holding `begin`, follows
  /// pieces separated by gaps of at most kEps until it reaches `end`.
  /// Every availability answer and accept()'s drop rule derive from it.
  [[nodiscard]] Reach walk(double begin, double end) const;
  /// Lowers the earliest-cover time over `[begin, end]` to at most `at`,
  /// filling holes; the timeline stays sorted, disjoint and fused.
  void merge_range(double begin, double end, double at);

  double expected_;
  std::size_t retained_ = 0;
  std::vector<Piece> timeline_;
};

}  // namespace vodbcast::net
