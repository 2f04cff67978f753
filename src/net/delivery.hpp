// End-to-end packet delivery for one client segment download: packetize the
// joined transmission, push it through a loss model, reassemble, and grade
// the result against the playback deadline — the packet-level counterpart
// of the fluid-model SegmentDownload.
#pragma once

#include "channel/schedule.hpp"
#include "net/loss.hpp"
#include "net/packetizer.hpp"
#include "net/reassembly.hpp"
#include "obs/sink.hpp"

namespace vodbcast::net {

/// Recovery knobs for a delivery. The default (no FEC, no retries) is the
/// passive pre-recovery behavior: a hole persists until the next
/// repetition of the loop.
struct DeliveryOptions {
  FecConfig fec{};
  /// Catch-up repetitions the client may wait for to refill holes before
  /// the damage is surfaced as degradation.
  int retry_budget = 0;
};

struct DeliveryReport {
  std::size_t packets_sent = 0;    ///< data + parity, all passes
  std::size_t packets_lost = 0;    ///< dropped by the loss model, all passes
  std::size_t parity_sent = 0;     ///< parity packets among packets_sent
  std::size_t repaired_packets = 0;  ///< data packets healed by FEC blocks
  std::size_t retries_used = 0;    ///< catch-up repetitions consumed
  bool complete = false;           ///< every byte arrived
  bool degraded = false;           ///< holes left after the retry budget
  std::size_t gap_count = 0;       ///< holes left by loss
  /// True when every byte was available no later than its playback time
  /// for a playback beginning at `deadline` and consuming at the display
  /// rate. Lost packets void this unless repair healed them in time.
  bool jitter_free = false;
  /// Instant the last first-pass hole healed (parity repair, a catch-up
  /// repetition, or — if never healed — the projected arrival of the lost
  /// bytes on the first unmodeled repetition); 0 when nothing was lost.
  double heal_min = 0.0;
  /// Worst per-byte lateness against the playback clock, minutes: how long
  /// the player would stall waiting for the slowest byte (0 = on time).
  /// For an incomplete delivery the missing bytes are projected to heal at
  /// their next-repetition arrival.
  double stall_min = 0.0;
};

/// Delivers the `index`-th transmission of `stream` through `loss` and
/// grades it against a playback that starts at `playback_start` and
/// consumes at `display_rate`, applying the recovery policy in `options`:
/// FEC parity heals a block once any k of its symbols arrive (in-band,
/// without waiting a repetition), and remaining holes are refilled from up
/// to `retry_budget` following repetitions of the loop before the delivery
/// is marked degraded. With a sink, per-channel counter families
/// (`net.packets_sent` / `net.packets_lost` / `net.delivery_gaps` /
/// `net.repaired_packets`, keyed by the stream's logical channel) record
/// where the damage lands, and a lossy delivery additionally records one
/// `retransmit` span — from the first loss to the instant the last hole
/// actually healed (which an in-band parity repair can place well before a
/// full period has elapsed) — parented onto `parent_span` (a
/// segment_download span, 0 = root) so trace_analyze can attribute the
/// true recovery window.
[[nodiscard]] DeliveryReport deliver_segment(
    const channel::PeriodicBroadcast& stream, std::uint64_t index,
    core::Mbits mtu, LossModel& loss, core::Minutes playback_start,
    core::MbitPerSec display_rate, const DeliveryOptions& options = {},
    obs::Sink* sink = nullptr, std::uint64_t parent_span = 0);

}  // namespace vodbcast::net
