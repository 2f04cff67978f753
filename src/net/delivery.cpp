#include "net/delivery.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace vodbcast::net {

namespace {

/// What one repetition put on the wire.
struct Pass {
  std::vector<Packet> sent;       ///< data + parity, in wire order
  std::vector<Packet> lost_data;  ///< data packets lost, healed or not
};

/// One repetition of the loop on the wire: packetizes the `index`-th
/// transmission, lets `loss` drop packets, counts what was sent, lost and
/// parity into `report`, and feeds the surviving data packets into the
/// reassembler. FEC heals a block with a lost data packet once any k of its
/// symbols (data or parity) survived: the lost bytes become available at
/// the send time of the k-th surviving symbol — in-band, without waiting a
/// repetition.
Pass deliver_pass(const channel::PeriodicBroadcast& stream,
                  std::uint64_t index, core::Mbits mtu, const FecConfig& fec,
                  LossModel& loss, SegmentReassembler& reassembler,
                  DeliveryReport& report) {
  Pass pass{packetize_transmission_fec(stream, index, mtu, fec), {}};
  const std::vector<Packet>& sent = pass.sent;
  std::vector<char> survived(sent.size(), 0);
  report.packets_sent += sent.size();
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Packet& p = sent[i];
    if (p.is_parity) {
      ++report.parity_sent;
    }
    if (loss.drop(p)) {
      ++report.packets_lost;
      if (!p.is_parity) {
        pass.lost_data.push_back(p);
      }
      continue;
    }
    survived[i] = 1;
    if (!p.is_parity) {
      reassembler.accept(p);
    }
  }
  std::size_t i = 0;
  while (i < sent.size()) {
    const std::uint32_t block = sent[i].fec_block;
    std::size_t j = i;
    std::size_t data_in_block = 0;
    bool data_lost = false;
    while (j < sent.size() && sent[j].fec_block == block) {
      if (!sent[j].is_parity) {
        ++data_in_block;
        if (!survived[j]) {
          data_lost = true;
        }
      }
      ++j;
    }
    if (data_lost) {
      // The block reconstructs once any `data_in_block` symbols are in.
      std::size_t got = 0;
      for (std::size_t t = i; t < j; ++t) {
        if (survived[t] && ++got == data_in_block) {
          const core::Minutes heal = sent[t].send_time;
          for (std::size_t u = i; u < j; ++u) {
            if (!survived[u] && !sent[u].is_parity) {
              Packet fixed = sent[u];
              fixed.send_time = heal;
              reassembler.accept(fixed);
              ++report.repaired_packets;
            }
          }
          break;
        }
      }
    }
    i = j;
  }
  return pass;
}

}  // namespace

DeliveryReport deliver_segment(const channel::PeriodicBroadcast& stream,
                               std::uint64_t index, core::Mbits mtu,
                               LossModel& loss, core::Minutes playback_start,
                               core::MbitPerSec display_rate,
                               const DeliveryOptions& options, obs::Sink* sink,
                               std::uint64_t parent_span) {
  VB_EXPECTS(display_rate.v > 0.0);
  VB_EXPECTS(options.retry_budget >= 0);
  SegmentReassembler reassembler(stream.rate * stream.transmission);
  DeliveryReport report;
  // The first-pass data holes are what the recovery story is about: they
  // anchor the retransmit span and the heal instant.
  const Pass first = deliver_pass(stream, index, mtu, options.fec, loss,
                                  reassembler, report);
  const std::vector<Packet>& lost_data = first.lost_data;

  // Catch-up: refill remaining holes from the following repetitions of the
  // loop, within the retry budget. The loss model chain keeps drawing, so
  // a retry can lose packets too.
  while (!reassembler.complete() &&
         static_cast<int>(report.retries_used) < options.retry_budget) {
    ++report.retries_used;
    (void)deliver_pass(stream, index + report.retries_used, mtu, options.fec,
                       loss, reassembler, report);
  }

  report.complete = reassembler.complete();
  report.degraded = !report.complete;
  report.gap_count = reassembler.gaps().size();

  // Jitter-freedom: every byte x (we check packet boundaries, which is
  // exact for piecewise delivery) must be readable by the time playback
  // reaches it: playback_start + x / display_rate.
  report.jitter_free = report.complete;
  if (report.complete) {
    for (const auto& p : first.sent) {
      if (p.is_parity) {
        continue;
      }
      const core::Mbits through{p.offset.v + p.payload.v};
      const auto available = reassembler.prefix_available_at(through);
      VB_ASSERT(available.has_value());
      const core::Minutes needed_by{playback_start.v +
                                    (through / display_rate).v};
      if (available->v > needed_by.v + 1e-9) {
        report.jitter_free = false;
        report.stall_min =
            std::max(report.stall_min, available->v - needed_by.v);
      }
    }
  }

  // Heal instant: when the last first-pass hole actually closed — a parity
  // repair or catch-up repetition timestamps it directly; a hole that
  // never closed replays at its position in the first repetition we did
  // not model. (For a periodic stream a lost byte's next-repetition
  // arrival is exactly its send time plus one period: repetition i+1
  // replays every byte period minutes later.)
  if (!lost_data.empty()) {
    double heal = 0.0;
    for (const Packet& p : lost_data) {
      const auto covered = reassembler.covered_since(
          p.offset, core::Mbits{p.offset.v + p.payload.v});
      const double h =
          covered.has_value()
              ? covered->v
              : p.send_time.v +
                    (static_cast<double>(report.retries_used) + 1.0) *
                        stream.period.v;
      heal = std::max(heal, h);
      if (!covered.has_value()) {
        // A hole that never healed: project the player's stall on it.
        const core::Mbits through{p.offset.v + p.payload.v};
        const double needed_by =
            playback_start.v + (through / display_rate).v;
        report.stall_min = std::max(report.stall_min, h - needed_by);
      }
    }
    report.heal_min = heal;
  }

  if (sink != nullptr) {
    // Per-channel damage accounting: loss models differ per receiver, so
    // which logical channel eats the loss is the dimension that matters.
    const std::vector<std::uint64_t> channel = {
        static_cast<std::uint64_t>(stream.logical_channel)};
    sink->metrics.counter_family("net.packets_sent", {"channel"})
        .with_ids(channel)
        .add(report.packets_sent);
    if (report.packets_lost > 0) {
      sink->metrics.counter_family("net.packets_lost", {"channel"})
          .with_ids(channel)
          .add(report.packets_lost);
    }
    if (report.gap_count > 0) {
      sink->metrics.counter_family("net.delivery_gaps", {"channel"})
          .with_ids(channel)
          .add(report.gap_count);
    }
    if (report.repaired_packets > 0) {
      sink->metrics.counter_family("net.repaired_packets", {"channel"})
          .with_ids(channel)
          .add(report.repaired_packets);
    }
    if (!lost_data.empty()) {
      // The recovery window: from the first lost byte to the instant the
      // damage actually healed — an in-band parity repair can close it
      // well before a full period has elapsed, a multi-packet loss not
      // until the last hole's repetition.
      sink->spans.record(obs::Span{
          .parent = parent_span,
          .start_min = lost_data.front().send_time.v,
          .end_min = report.heal_min,
          .phase = obs::SpanPhase::kRetransmit,
          .channel = stream.logical_channel,
          .video = stream.video,
          .client = 0,
          .value = static_cast<double>(lost_data.size()),
          .label = {},
      });
    }
  }
  return report;
}

}  // namespace vodbcast::net
