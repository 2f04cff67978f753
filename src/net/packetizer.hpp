// Packetization of periodic broadcasts.
#pragma once

#include <vector>

#include "channel/schedule.hpp"
#include "net/packet.hpp"

namespace vodbcast::net {

/// Systematic k-of-n FEC shape: every block of `data_per_block` data
/// packets is followed by `parity_per_block` parity packets; any
/// `data_per_block` surviving symbols of a block reconstruct it. Both zero
/// = FEC off.
struct FecConfig {
  int data_per_block = 0;
  int parity_per_block = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return data_per_block > 0 && parity_per_block > 0;
  }
  /// Fraction of wire bits that are parity, assuming mtu-sized symbols.
  [[nodiscard]] double overhead() const noexcept {
    return enabled() ? static_cast<double>(parity_per_block) /
                           static_cast<double>(data_per_block)
                     : 0.0;
  }
};

/// Splits one transmission (the `index`-th repetition) of a periodic
/// broadcast into packets of at most `mtu` payload each. The segment size
/// is rate * transmission; the last packet may be short. Packets are
/// timestamped with the instant their last bit is sent.
/// Preconditions: mtu > 0.
[[nodiscard]] std::vector<Packet> packetize_transmission(
    const channel::PeriodicBroadcast& stream, std::uint64_t index,
    core::Mbits mtu);

/// Like packetize_transmission, but interleaves parity packets per
/// `fec` block. The wire carries data + parity within the same
/// transmission slot (the emission rate is inflated by the parity
/// overhead), so the last bit still leaves at start + transmission and the
/// SB period contract is preserved; the overhead is a bandwidth cost, not
/// a slot overrun. With `fec` disabled the whole transmission is one
/// parity-free block 0: packetize_transmission.
[[nodiscard]] std::vector<Packet> packetize_transmission_fec(
    const channel::PeriodicBroadcast& stream, std::uint64_t index,
    core::Mbits mtu, const FecConfig& fec);

/// All packets of all repetitions of `stream` whose send time falls in
/// [from, until). Handy for window-based tuner tests.
[[nodiscard]] std::vector<Packet> packets_in_window(
    const channel::PeriodicBroadcast& stream, core::Minutes from,
    core::Minutes until, core::Mbits mtu);

}  // namespace vodbcast::net
