#include "fault/injector.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace vodbcast::fault {

namespace {

/// Derived seed for per-(plan, key) private streams; pure, so verdicts are
/// reproducible across machines and thread counts.
std::uint64_t derive_seed(std::uint64_t plan_seed, std::uint64_t key) {
  return util::SplitMix64(plan_seed ^
                          (0x9E3779B97F4A7C15ULL * (key + 1)))
      .next();
}

/// Does a burst episode punch a hole in a fluid download overlapping it
/// for `ov` minutes? The fluid layer has no packets, so we use the burst's
/// stationary loss rate at roughly one packet a second: sustained loss
/// over the overlap leaves a hole with probability 1-(1-loss)^(60*ov).
bool burst_damages(const Episode& episode, double a, double b,
                   util::Rng& rng) {
  const double ov = episode.overlap_min(a, b);
  if (ov <= 0.0) {
    return false;
  }
  const auto& p = episode.burst;
  const double denom = p.p_good_to_bad + p.p_bad_to_good;
  const double pi_bad = denom > 0.0 ? p.p_good_to_bad / denom : 0.0;
  const double eloss = pi_bad * p.loss_bad + (1.0 - pi_bad) * p.loss_good;
  const double p_hole = 1.0 - std::pow(1.0 - eloss, 60.0 * ov);
  return rng.next_double() < p_hole;
}

}  // namespace

Injector::Injector(Plan plan, RecoveryPolicy policy)
    : plan_(std::move(plan)), policy_(policy) {
  VB_EXPECTS_MSG(policy_.retry_budget >= 0,
                 "fault recovery: the retry budget must be >= 0, got " +
                     std::to_string(policy_.retry_budget));
}

FaultyChannel::FaultyChannel(const Injector& injector, int logical_channel,
                             net::LossModel& base)
    : plan_(injector.plan()), channel_(logical_channel), base_(base) {
  bursts_.resize(plan_.episodes().size());
  for (std::size_t i = 0; i < plan_.episodes().size(); ++i) {
    const auto& e = plan_.episodes()[i];
    if (e.kind == EpisodeKind::kLossBurst && e.hits_channel(channel_)) {
      bursts_[i] = std::make_unique<net::GilbertElliottLoss>(
          e.burst, derive_seed(plan_.seed(),
                               (i + 1) * 8191 +
                                   static_cast<std::uint64_t>(channel_)));
    }
  }
}

bool FaultyChannel::drop(const net::Packet& packet) {
  const double t = packet.send_time.v;
  for (std::size_t i = 0; i < plan_.episodes().size(); ++i) {
    const auto& e = plan_.episodes()[i];
    if (!e.hits_channel(channel_) || t < e.start_min || t >= e.end_min) {
      continue;
    }
    if (e.kind == EpisodeKind::kChannelOutage) {
      return true;  // channel dark: dropped without consuming a base draw
    }
    if (e.kind == EpisodeKind::kLossBurst && bursts_[i] != nullptr) {
      return bursts_[i]->drop(packet);  // burst chain draws, base does not
    }
  }
  return base_.drop(packet);
}

DownloadDamage assess_download(const Injector* injector, double start_min,
                               double end_min, int channel, double period_min,
                               std::uint64_t draw_key) {
  DownloadDamage damage;
  if (injector == nullptr || injector->plan().empty()) {
    return damage;
  }
  VB_EXPECTS(end_min >= start_min);
  VB_EXPECTS(period_min > 0.0);
  const Plan& plan = injector->plan();
  damage.repaired_at_min = end_min;

  std::size_t hit = plan.first_hit(EpisodeKind::kChannelOutage, start_min,
                                   end_min, channel);
  if (hit == Plan::npos) {
    hit = plan.first_hit(EpisodeKind::kServerRestart, start_min, end_min,
                         channel);
  }
  util::Rng rng(derive_seed(plan.seed(), draw_key));
  if (hit == Plan::npos) {
    const std::size_t burst =
        plan.first_hit(EpisodeKind::kLossBurst, start_min, end_min, channel);
    if (burst != Plan::npos &&
        burst_damages(plan.episodes()[burst], start_min, end_min, rng)) {
      hit = burst;
    }
  }
  if (hit == Plan::npos) {
    // No data lost; a disk stall still delays completion in place.
    const double stall = plan.stall_overlap(start_min, end_min);
    if (stall > 0.0) {
      damage.episode =
          plan.first_hit(EpisodeKind::kDiskStall, start_min, end_min, channel);
      damage.damaged = true;
      damage.repaired = true;
      damage.repaired_at_min = end_min + stall;
    }
    return damage;
  }

  damage.episode = hit;
  damage.damaged = true;
  const int budget = injector->policy().retry_budget;
  for (int r = 1; r <= budget; ++r) {
    const double ra = start_min + static_cast<double>(r) * period_min;
    const double rb = end_min + static_cast<double>(r) * period_min;
    if (!plan.outage_free(ra, rb, channel)) {
      continue;
    }
    const std::size_t burst =
        plan.first_hit(EpisodeKind::kLossBurst, ra, rb, channel);
    if (burst != Plan::npos &&
        burst_damages(plan.episodes()[burst], ra, rb, rng)) {
      continue;
    }
    damage.repaired = true;
    damage.retries = r;
    damage.repaired_at_min = rb + plan.stall_overlap(ra, rb);
    break;
  }
  if (!damage.repaired) {
    // Survived the budget: surfaced as degradation; the projected heal is
    // the first repetition past the budget, for penalty accounting only.
    damage.retries = budget;
    damage.repaired_at_min =
        end_min + (static_cast<double>(budget) + 1.0) * period_min;
  }
  return damage;
}

void trace_plan(obs::Sink& sink, const Plan& plan) {
  auto& episodes_family =
      sink.metrics.counter_family("fault.episodes", {"kind"});
  for (std::size_t i = 0; i < plan.episodes().size(); ++i) {
    const auto& e = plan.episodes()[i];
    episodes_family.with_ids({static_cast<std::uint64_t>(e.kind)}).add();
    sink.spans.record(obs::Span{
        .start_min = e.start_min,
        .end_min = e.end_min,
        .phase = obs::SpanPhase::kFaultEpisode,
        .channel = e.channel,
        .video = 0,
        .client = 0,
        .value = static_cast<double>(i),
        .label = std::string(to_string(e.kind)),
    });
  }
}

}  // namespace vodbcast::fault
