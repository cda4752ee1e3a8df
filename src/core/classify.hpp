// NTP DDoS classification (§4).
//
// Optimistic filter: a flow is amplification traffic when it is UDP with
// source port 123 and a mean packet size above 200 bytes — the threshold
// the paper derives from the bimodal NTP packet size distribution at the
// IXP (monlist replies are 486/490 bytes, benign NTP is < 200).
//
// Conservative filter: to bound false positives (monlist scanning,
// NTP-port-reusing applications), a destination additionally must (a)
// receive a traffic peak above 1 Gbps in some one-minute bin, and (b)
// receive traffic from more than 10 amplifiers. Applying both reduced the
// paper's NTP destination count by 78% (a: 74%, b: 59%).
#pragma once

#include <cstddef>
#include <cstdint>

#include "flow/batch.hpp"
#include "flow/record.hpp"
#include "net/protocol.hpp"

namespace booterscope::core {

struct OptimisticFilterConfig {
  std::uint16_t service_port = net::ports::kNtp;
  double min_mean_packet_bytes = 200.0;
};

/// Flow-level test: is this flow amplified reflection traffic?
[[nodiscard]] inline bool is_reflection_flow(
    const flow::FlowRecord& f,
    const OptimisticFilterConfig& config = {}) noexcept {
  return f.proto == net::IpProto::kUdp && f.src_port == config.service_port &&
         f.mean_packet_size() > config.min_mean_packet_bytes;
}

/// Row form of the same test over a columnar batch: the streaming hot
/// path reads only the columns it needs, never a whole record. The port
/// is tested first because it rejects most rows, so the protocol column
/// is read only for rows on the selector's port.
[[nodiscard]] inline bool is_reflection_flow(
    const flow::FlowBatchView& batch, std::size_t row,
    const OptimisticFilterConfig& config = {}) noexcept {
  return batch.src_port[row] == config.service_port &&
         batch.proto[row] == net::IpProto::kUdp &&
         batch.mean_packet_size(row) > config.min_mean_packet_bytes;
}

/// Flow-level test: is this flow *to* a reflector port (trigger,
/// maintenance, scanning or benign request traffic)? This is the selector
/// behind the Fig. 4 time series.
[[nodiscard]] inline bool is_to_reflector_flow(const flow::FlowRecord& f,
                                               std::uint16_t service_port) noexcept {
  return f.proto == net::IpProto::kUdp && f.dst_port == service_port;
}

/// Row form of is_to_reflector_flow over a columnar batch (port first,
/// as above).
[[nodiscard]] inline bool is_to_reflector_flow(
    const flow::FlowBatchView& batch, std::size_t row,
    std::uint16_t service_port) noexcept {
  return batch.dst_port[row] == service_port &&
         batch.proto[row] == net::IpProto::kUdp;
}

struct ConservativeFilterConfig {
  OptimisticFilterConfig optimistic;
  double min_peak_gbps = 1.0;       // rule (a)
  std::uint32_t min_amplifiers = 10;  // rule (b): strictly more than this
};

/// Destination-level verdict under the conservative filter; produced by
/// the victim aggregation in core/victims.hpp.
struct DestinationVerdict {
  bool passes_rate = false;       // rule (a)
  bool passes_amplifiers = false; // rule (b)
  [[nodiscard]] bool conservative() const noexcept {
    return passes_rate && passes_amplifiers;
  }
};

}  // namespace booterscope::core
