// Fault injection and recovery policy.
//
// The Injector bundles a fault::Plan with the recovery knobs that make the
// damage survivable, and is threaded through the stack the same way
// obs::Sink is: a null-tolerant pointer defaulting to "no faults", so every
// instrumented path stays bit-identical until a plan is supplied. All
// Injector queries are const and pure — a single instance is safely shared
// across replication workers.
#pragma once

#include <memory>
#include <vector>

#include "fault/plan.hpp"
#include "net/delivery.hpp"
#include "net/loss.hpp"
#include "obs/sink.hpp"

namespace vodbcast::fault {

/// How damage is repaired before it is surfaced as degradation.
struct RecoveryPolicy {
  /// Packet-level parity: a hole heals in-band once any k symbols of its
  /// block arrive, without waiting a repetition. Off by default.
  net::FecConfig fec{};
  /// Catch-up repetitions a client may wait for per damaged download
  /// before the damage is declared degradation. Never negative.
  int retry_budget = 1;
};

class Injector {
 public:
  /// Precondition: policy.retry_budget >= 0 (a negative budget would stamp
  /// a degradation before the hit it degrades).
  explicit Injector(Plan plan, RecoveryPolicy policy = {});

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] const RecoveryPolicy& policy() const noexcept {
    return policy_;
  }
  [[nodiscard]] net::DeliveryOptions delivery_options() const noexcept {
    return net::DeliveryOptions{policy_.fec, policy_.retry_budget};
  }

 private:
  Plan plan_;
  RecoveryPolicy policy_;
};

/// Channel-scoped loss wrapper for the packet path: outage windows drop
/// deterministically (without consuming a base-model draw), loss-burst
/// windows substitute a per-(episode, channel) Gilbert-Elliott chain
/// seeded from the plan seed (the base model does not draw during the
/// burst), and every other packet defers to the base model — so with an
/// episode-free plan the base chain's draw sequence is untouched and the
/// delivery is bit-identical to running without the wrapper.
class FaultyChannel final : public net::LossModel {
 public:
  FaultyChannel(const Injector& injector, int logical_channel,
                net::LossModel& base);

  bool drop(const net::Packet& packet) override;

 private:
  const Plan& plan_;
  int channel_;
  net::LossModel& base_;
  /// Burst chains keyed by episode index (null for non-burst episodes).
  std::vector<std::unique_ptr<net::GilbertElliottLoss>> bursts_;
};

/// Fluid-layer damage verdict for one planned segment download.
struct DownloadDamage {
  std::size_t episode = Plan::npos;  ///< first episode hit (npos = clean)
  bool damaged = false;        ///< data was lost or delayed
  bool repaired = false;       ///< healed within the recovery policy
  int retries = 0;             ///< catch-up repetitions consumed
  double repaired_at_min = 0;  ///< when the data was fully available
};

/// Assesses one fluid-model download window [start_min, end_min) on
/// logical channel `channel` (period `period_min`) against the injector's
/// plan, and plays the recovery policy forward: an outage or a restart
/// cutting the window voids it; a loss burst voids it with a probability
/// driven by the burst's stationary loss rate (drawn from a private stream
/// keyed by `draw_key`, so the verdict is a pure function of plan seed and
/// key); a disk stall delays completion in place. Damage then retries on
/// the following repetitions within the retry budget; a retry succeeds
/// when its window is outage-free and survives any burst redraw. A null
/// injector returns a clean verdict.
[[nodiscard]] DownloadDamage assess_download(const Injector* injector,
                                             double start_min, double end_min,
                                             int channel, double period_min,
                                             std::uint64_t draw_key);

/// Registers a fault plan with the sink: one root `fault_episode` span per
/// episode (value = episode index, the key every fault_hit, repair and
/// fault_degraded span refers back to), plus the `fault.episodes{kind}`
/// counter family. Shared by every layer that runs under an injector so the
/// evidence is uniform across sim, net and ctrl.
void trace_plan(obs::Sink& sink, const Plan& plan);

}  // namespace vodbcast::fault
