#include "net/packetizer.hpp"

#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace vodbcast::net {

std::vector<Packet> packetize_transmission(
    const channel::PeriodicBroadcast& stream, std::uint64_t index,
    core::Mbits mtu) {
  return packetize_transmission_fec(stream, index, mtu, FecConfig{});
}

std::vector<Packet> packetize_transmission_fec(
    const channel::PeriodicBroadcast& stream, std::uint64_t index,
    core::Mbits mtu, const FecConfig& fec) {
  VB_EXPECTS(mtu.v > 0.0);
  const core::Mbits total = stream.rate * stream.transmission;
  VB_EXPECTS(total.v > 0.0);

  const core::Minutes start{stream.phase.v +
                            static_cast<double>(index) * stream.period.v};
  const StreamKey key{stream.video, stream.segment, stream.subchannel};

  // FEC off is one parity-free block that no transmission can fill, so
  // every packet stays in block 0 and the wire carries the data alone.
  const auto n_data = static_cast<std::size_t>(std::ceil(total.v / mtu.v));
  const std::size_t k = fec.enabled()
                            ? static_cast<std::size_t>(fec.data_per_block)
                            : std::numeric_limits<std::size_t>::max();
  const std::size_t p =
      fec.enabled() ? static_cast<std::size_t>(fec.parity_per_block) : 0;
  const std::size_t n_blocks = n_data / k + (n_data % k != 0 ? 1 : 0);
  const double wire_total =
      total.v + static_cast<double>(n_blocks * p) * mtu.v;
  // Data + parity share the transmission slot: the wire emits `wire_total`
  // bits over the same duration the plain transmission emits `total`, so
  // scale cumulative wire bits back to data-rate time (1 with FEC off).
  const double scale = total.v / wire_total;

  std::vector<Packet> packets;
  packets.reserve(n_data + n_blocks * p);
  double offset = 0.0;
  double wire = 0.0;
  std::uint32_t sequence = 0;
  std::uint32_t block = 0;
  std::size_t in_block = 0;
  const auto emit_parity = [&](double block_begin) {
    for (std::size_t j = 0; j < p; ++j) {
      wire += mtu.v;
      const core::Minutes send{
          start.v + (core::Mbits{wire * scale} / stream.rate).v};
      packets.push_back(Packet{
          .stream = key,
          .broadcast_index = index,
          .sequence = sequence++,
          .offset = core::Mbits{block_begin},
          .payload = mtu,
          .send_time = send,
          .fec_block = block,
          .is_parity = true,
      });
    }
  };
  double block_begin = 0.0;
  while (offset < total.v - 1e-12) {
    const double payload = std::min(mtu.v, total.v - offset);
    wire += payload;
    const core::Minutes send{
        start.v + (core::Mbits{wire * scale} / stream.rate).v};
    packets.push_back(Packet{
        .stream = key,
        .broadcast_index = index,
        .sequence = sequence++,
        .offset = core::Mbits{offset},
        .payload = core::Mbits{payload},
        .send_time = send,
        .fec_block = block,
        .is_parity = false,
    });
    offset += payload;
    if (++in_block == k || offset >= total.v - 1e-12) {
      emit_parity(block_begin);
      ++block;
      in_block = 0;
      block_begin = offset;
    }
  }
  VB_ENSURES(!packets.empty());
  return packets;
}

std::vector<Packet> packets_in_window(const channel::PeriodicBroadcast& stream,
                                      core::Minutes from, core::Minutes until,
                                      core::Mbits mtu) {
  VB_EXPECTS(until.v >= from.v);
  std::vector<Packet> packets;
  // First repetition that could still emit packets after `from`.
  const double first_relevant =
      std::floor((from.v - stream.phase.v) / stream.period.v) - 1.0;
  auto index = static_cast<std::uint64_t>(std::max(0.0, first_relevant));
  while (true) {
    const double start =
        stream.phase.v + static_cast<double>(index) * stream.period.v;
    if (start >= until.v) {
      break;
    }
    for (auto& p : packetize_transmission(stream, index, mtu)) {
      if (p.send_time.v >= from.v && p.send_time.v < until.v) {
        packets.push_back(p);
      }
    }
    ++index;
  }
  return packets;
}

}  // namespace vodbcast::net
