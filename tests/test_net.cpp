#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/delivery.hpp"
#include "net/loss.hpp"
#include "net/packetizer.hpp"
#include "net/reassembly.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::net {
namespace {

channel::PeriodicBroadcast sb_stream(double period_min = 8.0) {
  return channel::PeriodicBroadcast{
      .logical_channel = 0,
      .subchannel = 0,
      .video = 0,
      .segment = 1,
      .rate = core::MbitPerSec{1.5},
      .period = core::Minutes{period_min},
      .phase = core::Minutes{0.0},
      .transmission = core::Minutes{period_min},
  };
}

TEST(PacketizerTest, CoversSegmentExactly) {
  const auto stream = sb_stream();  // 8 min * 1.5 Mb/s = 720 Mbits
  const auto packets = packetize_transmission(stream, 0, core::Mbits{100.0});
  ASSERT_EQ(packets.size(), 8U);  // 7 full + 1 short
  double total = 0.0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].sequence, i);
    total += packets[i].payload.v;
  }
  EXPECT_NEAR(total, 720.0, 1e-9);
  EXPECT_NEAR(packets.back().payload.v, 20.0, 1e-9);
}

TEST(PacketizerTest, SendTimesTrackTheRate) {
  const auto stream = sb_stream();
  const auto packets = packetize_transmission(stream, 0, core::Mbits{90.0});
  // 90 Mbits at 1.5 Mb/s = 60 s = 1 minute per packet.
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_NEAR(packets[i].send_time.v, static_cast<double>(i + 1), 1e-9);
  }
}

TEST(PacketizerTest, LaterRepetitionsShiftByPeriod) {
  const auto stream = sb_stream();
  const auto first = packetize_transmission(stream, 0, core::Mbits{100.0});
  const auto third = packetize_transmission(stream, 2, core::Mbits{100.0});
  ASSERT_EQ(first.size(), third.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_NEAR(third[i].send_time.v - first[i].send_time.v, 16.0, 1e-9);
    EXPECT_EQ(third[i].broadcast_index, 2U);
  }
}

TEST(PacketizerTest, WindowSelectsBySendTime) {
  const auto stream = sb_stream();
  const auto packets = packets_in_window(stream, core::Minutes{8.0},
                                         core::Minutes{16.0},
                                         core::Mbits{100.0});
  ASSERT_FALSE(packets.empty());
  for (const auto& p : packets) {
    EXPECT_GE(p.send_time.v, 8.0);
    EXPECT_LT(p.send_time.v, 16.0);
  }
}

TEST(PacketizerTest, RejectsBadMtu) {
  EXPECT_THROW(
      (void)packetize_transmission(sb_stream(), 0, core::Mbits{0.0}),
      util::ContractViolation);
}

TEST(ReassemblerTest, InOrderDelivery) {
  const auto packets =
      packetize_transmission(sb_stream(), 0, core::Mbits{100.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (const auto& p : packets) {
    reassembler.accept(p);
  }
  EXPECT_TRUE(reassembler.complete());
  EXPECT_TRUE(reassembler.gaps().empty());
  EXPECT_NEAR(reassembler.contiguous_prefix().v, 720.0, 1e-9);
}

TEST(ReassemblerTest, OutOfOrderStillCompletes) {
  auto packets = packetize_transmission(sb_stream(), 0, core::Mbits{100.0});
  std::swap(packets[1], packets[5]);
  std::swap(packets[0], packets[3]);
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (const auto& p : packets) {
    reassembler.accept(p);
  }
  EXPECT_TRUE(reassembler.complete());
}

TEST(ReassemblerTest, DetectsGapFromLoss) {
  const auto packets =
      packetize_transmission(sb_stream(), 0, core::Mbits{100.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i == 3) {
      continue;  // drop one packet
    }
    reassembler.accept(packets[i]);
  }
  EXPECT_FALSE(reassembler.complete());
  const auto gaps = reassembler.gaps();
  ASSERT_EQ(gaps.size(), 1U);
  EXPECT_NEAR(gaps[0].begin.v, 300.0, 1e-9);
  EXPECT_NEAR(gaps[0].end.v, 400.0, 1e-9);
  // The contiguous prefix stops at the hole.
  EXPECT_NEAR(reassembler.contiguous_prefix().v, 300.0, 1e-9);
  EXPECT_NEAR(reassembler.received().v, 620.0, 1e-9);
}

TEST(ReassemblerTest, PrefixAvailabilityIsPerPoint) {
  const auto packets =
      packetize_transmission(sb_stream(), 0, core::Mbits{90.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (const auto& p : packets) {
    reassembler.accept(p);
  }
  // Byte 90 (end of packet 0) was readable after 1 minute, not at the end
  // of the whole transmission.
  const auto at90 = reassembler.prefix_available_at(core::Mbits{90.0});
  ASSERT_TRUE(at90.has_value());
  EXPECT_NEAR(at90->v, 1.0, 1e-9);
  const auto at720 = reassembler.prefix_available_at(core::Mbits{720.0});
  ASSERT_TRUE(at720.has_value());
  EXPECT_NEAR(at720->v, 8.0, 1e-9);
}

TEST(ReassemblerTest, PrefixUnavailableBeyondHole) {
  const auto packets =
      packetize_transmission(sb_stream(), 0, core::Mbits{100.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  reassembler.accept(packets[0]);
  reassembler.accept(packets[2]);  // hole at packet 1
  EXPECT_TRUE(reassembler.prefix_available_at(core::Mbits{50.0}).has_value());
  EXPECT_FALSE(
      reassembler.prefix_available_at(core::Mbits{250.0}).has_value());
}

// Regression: the reassembler used to retain every accepted packet forever
// and re-sort the whole log per query; a retransmission storm was unbounded
// memory. Retransmitted bytes already covered at their send time must be
// dropped on accept, keeping the log at the distinct-coverage size.
TEST(ReassemblerTest, DuplicateStormKeepsTheLogCompact) {
  const auto stream = sb_stream();
  const auto first = packetize_transmission(stream, 0, core::Mbits{90.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (const auto& p : first) {
    reassembler.accept(p);
  }
  const auto retained = reassembler.retained_packets();
  EXPECT_EQ(retained, first.size());
  // Storm: the same transmission repeated 50 times (later send times), plus
  // exact same-time duplicates of the first one.
  for (std::uint64_t rep = 1; rep <= 50; ++rep) {
    for (const auto& p : packetize_transmission(stream, rep,
                                                core::Mbits{90.0})) {
      reassembler.accept(p);
    }
  }
  for (const auto& p : first) {
    reassembler.accept(p);
  }
  EXPECT_EQ(reassembler.retained_packets(), retained);
  EXPECT_TRUE(reassembler.complete());
  EXPECT_NEAR(reassembler.received().v, 720.0, 1e-9);
  // Availability answers still come from the *first* transmission.
  const auto at90 = reassembler.prefix_available_at(core::Mbits{90.0});
  ASSERT_TRUE(at90.has_value());
  EXPECT_NEAR(at90->v, 1.0, 1e-9);
}

// Out-of-order acceptance must not change availability: answers follow
// send times, not acceptance order.
TEST(ReassemblerTest, AvailabilityFollowsSendTimesNotAcceptOrder) {
  auto packets = packetize_transmission(sb_stream(), 0, core::Mbits{90.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (auto it = packets.rbegin(); it != packets.rend(); ++it) {
    reassembler.accept(*it);
  }
  const auto at90 = reassembler.prefix_available_at(core::Mbits{90.0});
  ASSERT_TRUE(at90.has_value());
  EXPECT_NEAR(at90->v, 1.0, 1e-9);  // packet 0's send time
  const auto at720 = reassembler.prefix_available_at(core::Mbits{720.0});
  ASSERT_TRUE(at720.has_value());
  EXPECT_NEAR(at720->v, 8.0, 1e-9);
}

// Reference model on an integer unit grid: each unit keeps its earliest
// cover time, and a packet is kept unless every unit it spans was already
// covered no later than its send time. With integer offsets and send times
// every answer is exact, so the reassembler must agree bit for bit after
// every accept.
class GridReference {
 public:
  explicit GridReference(int units)
      : cover_(static_cast<std::size_t>(units), -1) {}

  void accept(int begin, int end, int send) {
    bool covered = true;
    for (int u = begin; u < end; ++u) {
      covered = covered && cover(u) >= 0 && cover(u) <= send;
    }
    if (covered) {
      return;
    }
    ++retained_;
    for (int u = begin; u < end; ++u) {
      if (cover(u) < 0 || cover(u) > send) {
        cover_[static_cast<std::size_t>(u)] = send;
      }
    }
  }

  [[nodiscard]] int units() const { return static_cast<int>(cover_.size()); }
  [[nodiscard]] std::size_t retained() const { return retained_; }
  [[nodiscard]] int prefix() const {
    int u = 0;
    while (u < units() && cover(u) >= 0) {
      ++u;
    }
    return u;
  }
  [[nodiscard]] int received() const {
    int n = 0;
    for (const int c : cover_) {
      n += c >= 0 ? 1 : 0;
    }
    return n;
  }
  [[nodiscard]] std::vector<std::pair<int, int>> gaps() const {
    std::vector<std::pair<int, int>> out;
    for (int u = 0; u < units(); ++u) {
      if (cover(u) >= 0) {
        continue;
      }
      if (!out.empty() && out.back().second == u) {
        out.back().second = u + 1;
      } else {
        out.emplace_back(u, u + 1);
      }
    }
    return out;
  }
  /// Latest cover time over [begin, end), -1 while any unit is missing.
  [[nodiscard]] int covered_since(int begin, int end) const {
    int latest = 0;
    for (int u = begin; u < end; ++u) {
      if (cover(u) < 0) {
        return -1;
      }
      latest = std::max(latest, cover(u));
    }
    return latest;
  }

 private:
  [[nodiscard]] int cover(int u) const {
    return cover_[static_cast<std::size_t>(u)];
  }

  std::vector<int> cover_;
  std::size_t retained_ = 0;
};

double answer(const std::optional<core::Minutes>& at) {
  return at.has_value() ? at->v : -1.0;
}

TEST(ReassemblerTest, AgreesWithTheUnitGridReference) {
  util::Rng rng(0x5eed2026);
  for (int set = 0; set < 2000; ++set) {
    const int units = 1 + static_cast<int>(rng.next_below(24));
    SegmentReassembler reassembler(core::Mbits{static_cast<double>(units)});
    GridReference reference(units);
    std::vector<std::array<int, 3>> sent;
    const int packets = 1 + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(3 * units)));
    for (int i = 0; i < packets; ++i) {
      std::array<int, 3> packet{};
      if (!sent.empty() && rng.next_double() < 0.25) {
        // A duplicate, resent at the same or a fresh (possibly earlier) time.
        packet = sent[rng.next_below(sent.size())];
        if (rng.next_double() < 0.5) {
          packet[2] = static_cast<int>(rng.next_below(16));
        }
      } else {
        const int begin = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(units)));
        const int end = begin + 1 +
                        static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(units - begin)));
        packet = {begin, end, static_cast<int>(rng.next_below(16))};
      }
      sent.push_back(packet);
      const auto [begin, end, send] = packet;
      Packet p;
      p.offset = core::Mbits{static_cast<double>(begin)};
      p.payload = core::Mbits{static_cast<double>(end - begin)};
      p.send_time = core::Minutes{static_cast<double>(send)};
      reassembler.accept(p);
      reference.accept(begin, end, send);

      const std::string where = "set " + std::to_string(set) + " packet " +
                                std::to_string(i);
      ASSERT_EQ(reassembler.retained_packets(), reference.retained())
          << where;
      ASSERT_EQ(reassembler.contiguous_prefix().v, reference.prefix())
          << where;
      ASSERT_EQ(reassembler.complete(), reference.prefix() == units) << where;
      ASSERT_EQ(reassembler.received().v, reference.received()) << where;
      const auto gaps = reassembler.gaps();
      const auto expected_gaps = reference.gaps();
      ASSERT_EQ(gaps.size(), expected_gaps.size()) << where;
      for (std::size_t g = 0; g < gaps.size(); ++g) {
        ASSERT_EQ(gaps[g].begin.v, expected_gaps[g].first) << where;
        ASSERT_EQ(gaps[g].end.v, expected_gaps[g].second) << where;
      }
      for (int point = 0; point <= units; ++point) {
        ASSERT_EQ(answer(reassembler.prefix_available_at(
                      core::Mbits{static_cast<double>(point)})),
                  reference.covered_since(0, point))
            << where << " point " << point;
      }
      for (int q = 0; q < 8; ++q) {
        const int a = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(units)));
        const int b = a + 1 +
                      static_cast<int>(rng.next_below(
                          static_cast<std::uint64_t>(units - a)));
        ASSERT_EQ(answer(reassembler.covered_since(
                      core::Mbits{static_cast<double>(a)},
                      core::Mbits{static_cast<double>(b)})),
                  reference.covered_since(a, b))
            << where << " range " << a << ".." << b;
      }
    }
  }
}

// Every availability answer follows one coverage walk, so a range from 0
// and the prefix through the same point agree even when two pieces meet
// within the kEps tolerance just short of that point.
TEST(ReassemblerTest, RangeFromZeroAndPrefixAgreeAtTheToleranceEdge) {
  SegmentReassembler reassembler(core::Mbits{10.0});
  Packet head;
  head.payload = core::Mbits{5.0 - 1.5e-9};
  head.send_time = core::Minutes{1.0};
  Packet tail;
  tail.offset = core::Mbits{5.0 - 0.8e-9};
  tail.payload = core::Mbits{10.0 - tail.offset.v};
  tail.send_time = core::Minutes{2.0};
  reassembler.accept(head);
  reassembler.accept(tail);
  const auto prefix = reassembler.prefix_available_at(core::Mbits{5.0});
  const auto range =
      reassembler.covered_since(core::Mbits{0.0}, core::Mbits{5.0});
  ASSERT_TRUE(prefix.has_value());
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(prefix->v, 2.0);
  EXPECT_EQ(range->v, 2.0);
  // A later copy of [0, 5] adds nothing the walk did not already cover.
  Packet late;
  late.payload = core::Mbits{5.0};
  late.send_time = core::Minutes{3.0};
  reassembler.accept(late);
  EXPECT_EQ(reassembler.retained_packets(), 2U);
}

// A late retransmission that fills a real hole must still count: only
// packets *already covered at their send time* are droppable.
TEST(ReassemblerTest, RetransmissionFillingAHoleIsRetained) {
  const auto stream = sb_stream();
  const auto first = packetize_transmission(stream, 0, core::Mbits{90.0});
  const auto second = packetize_transmission(stream, 1, core::Mbits{90.0});
  SegmentReassembler reassembler(core::Mbits{720.0});
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (i != 3) {
      reassembler.accept(first[i]);
    }
  }
  EXPECT_FALSE(reassembler.complete());
  reassembler.accept(second[3]);  // the hole, from the next repetition
  EXPECT_TRUE(reassembler.complete());
  const auto at720 = reassembler.prefix_available_at(core::Mbits{720.0});
  ASSERT_TRUE(at720.has_value());
  EXPECT_NEAR(at720->v, second[3].send_time.v, 1e-9);
}

TEST(ReassemblerTest, RejectsForeignBytes) {
  SegmentReassembler reassembler(core::Mbits{100.0});
  Packet bad{};
  bad.offset = core::Mbits{90.0};
  bad.payload = core::Mbits{20.0};  // extends past the segment
  EXPECT_THROW(reassembler.accept(bad), util::ContractViolation);
}

TEST(LossModelTest, NoLossKeepsEverything) {
  const auto packets =
      packetize_transmission(sb_stream(), 0, core::Mbits{50.0});
  NoLoss none;
  EXPECT_EQ(apply_loss(packets, none).size(), packets.size());
}

TEST(LossModelTest, BernoulliMatchesProbability) {
  const auto stream = sb_stream();
  std::size_t sent = 0;
  std::size_t kept = 0;
  BernoulliLoss loss(0.3, 5);
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    const auto packets = packetize_transmission(stream, rep,
                                                core::Mbits{10.0});
    sent += packets.size();
    kept += apply_loss(packets, loss).size();
  }
  const double survival = static_cast<double>(kept) /
                          static_cast<double>(sent);
  EXPECT_NEAR(survival, 0.7, 0.02);
}

// Regression: the models used to take a util::Rng *by value*, so a caller
// reusing its rng after construction replayed the model's stream (perfectly
// correlated draws). Models now seed a private stream; two models from the
// same seed are identical, different seeds are independent, and no caller
// stream is involved at all.
TEST(LossModelTest, ModelsOwnIndependentStreams) {
  Packet p{};
  p.payload = core::Mbits{1.0};

  BernoulliLoss a(0.5, 77);
  BernoulliLoss b(0.5, 77);
  BernoulliLoss c(0.5, 78);
  int agree_ab = 0;
  int agree_ac = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const bool da = a.drop(p);
    const bool db = b.drop(p);
    const bool dc = c.drop(p);
    agree_ab += da == db ? 1 : 0;
    agree_ac += da == dc ? 1 : 0;
  }
  EXPECT_EQ(agree_ab, n);  // same seed -> same decisions
  EXPECT_LT(agree_ac, n);  // different seed -> decorrelated
  EXPECT_GT(agree_ac, 0);

  GilbertElliottLoss::Params params;
  params.loss_bad = 0.9;
  GilbertElliottLoss ga(params, 99);
  GilbertElliottLoss gb(params, 99);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ga.drop(p), gb.drop(p));
  }
}

TEST(LossModelTest, GilbertElliottBursts) {
  // Bad-state dwell makes losses cluster: the number of loss runs is far
  // below what independent loss at the same average rate would produce.
  GilbertElliottLoss::Params params;
  params.p_good_to_bad = 0.02;
  params.p_bad_to_good = 0.1;
  params.loss_good = 0.0;
  params.loss_bad = 0.9;
  GilbertElliottLoss ge(params, 9);
  Packet p{};
  p.payload = core::Mbits{1.0};
  int losses = 0;
  int runs = 0;
  bool in_run = false;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const bool dropped = ge.drop(p);
    losses += dropped ? 1 : 0;
    if (dropped && !in_run) {
      ++runs;
    }
    in_run = dropped;
  }
  ASSERT_GT(losses, 100);
  const double mean_run = static_cast<double>(losses) / runs;
  EXPECT_GT(mean_run, 2.0);  // independent loss would give ~1/(1-p) ~ 1.2
}

TEST(DeliveryTest, CleanChannelIsJitterFreeAtPlayAsItArrives) {
  // SB plays a segment straight off the channel: rate == display rate, so
  // a playback starting exactly at the broadcast start must grade as
  // jitter-free per packet boundary.
  NoLoss none;
  const auto report =
      deliver_segment(sb_stream(), 0, core::Mbits{64.0}, none,
                      core::Minutes{0.0}, core::MbitPerSec{1.5});
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.jitter_free);
  EXPECT_EQ(report.packets_lost, 0U);
  EXPECT_EQ(report.gap_count, 0U);
}

TEST(DeliveryTest, PrefetchedPlaybackTolerates) {
  NoLoss none;
  // Playback starts one period later (fully prefetched): trivially safe.
  const auto report =
      deliver_segment(sb_stream(), 0, core::Mbits{64.0}, none,
                      core::Minutes{8.0}, core::MbitPerSec{1.5});
  EXPECT_TRUE(report.jitter_free);
}

TEST(DeliveryTest, PlaybackAheadOfBroadcastStalls) {
  NoLoss none;
  // Playback begins 2 minutes before the broadcast: the early bytes miss
  // their deadlines.
  auto stream = sb_stream();
  stream.phase = core::Minutes{0.0};
  const auto report = deliver_segment(
      stream, 1 /* starts at minute 8 */, core::Mbits{64.0}, none,
      core::Minutes{6.0}, core::MbitPerSec{1.5});
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.jitter_free);
}

TEST(DeliveryTest, LossVoidsJitterFreedom) {
  BernoulliLoss loss(0.5, 13);
  const auto report =
      deliver_segment(sb_stream(), 0, core::Mbits{16.0}, loss,
                      core::Minutes{0.0}, core::MbitPerSec{1.5});
  EXPECT_GT(report.packets_lost, 0U);
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.jitter_free);
  EXPECT_GT(report.gap_count, 0U);
}

}  // namespace
}  // namespace vodbcast::net
