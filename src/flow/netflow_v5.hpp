// NetFlow v5 wire codec (the export format of the two ISP vantage points).
//
// Implements the classic fixed 24-byte header + 48-byte record layout.
// v5 carries 16-bit AS numbers and second/millisecond timestamps relative to
// router boot (SysUptime); the codec owns those conversions and documents
// the lossy fields.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flow/record.hpp"
#include "util/result.hpp"
#include "util/time.hpp"

namespace booterscope::flow {

inline constexpr std::size_t kNetflowV5HeaderBytes = 24;
inline constexpr std::size_t kNetflowV5RecordBytes = 48;
inline constexpr std::size_t kNetflowV5MaxRecords = 30;  // per RFC-described PDU

/// Export-time context that NetFlow v5 needs but FlowRecord does not carry.
struct NetflowV5ExportConfig {
  /// Router boot time; SysUptime fields are offsets from this instant.
  util::Timestamp boot_time;
  std::uint8_t engine_type = 0;
  std::uint8_t engine_id = 0;
  /// Sampling mode (2 bits) and interval (14 bits) packed per the spec.
  std::uint16_t sampling_interval = 0;
};

/// One parsed PDU: header fields plus decoded records.
struct NetflowV5Packet {
  util::Timestamp export_time;   // from unix_secs / unix_nsecs
  std::uint32_t sys_uptime_ms = 0;
  std::uint32_t flow_sequence = 0;
  std::uint8_t engine_type = 0;
  std::uint8_t engine_id = 0;
  std::uint16_t sampling_interval = 0;
  FlowList records;
  /// Record count the header declared; differs from records.size() when the
  /// PDU was truncated or over-claimed and the decoder salvaged a prefix.
  std::uint16_t declared_count = 0;
  /// Recoverable defects skipped while decoding this PDU.
  util::DecodeDamage damage;
};

/// Encodes up to kNetflowV5MaxRecords flows into one PDU. Flows beyond the
/// limit are ignored by this call — use NetflowV5Exporter for streams.
/// Lossy fields: ASNs are truncated to 16 bits, timestamps to milliseconds.
[[nodiscard]] std::vector<std::uint8_t> encode_netflow_v5(
    std::span<const FlowRecord> flows, const NetflowV5ExportConfig& config,
    std::uint32_t flow_sequence, util::Timestamp export_time);

/// Decodes one PDU. Fatal only when the header itself is unusable
/// (truncated header, wrong version); a record count that disagrees with the
/// available bytes degrades instead: the whole-record prefix is salvaged and
/// the shortfall recorded in the packet's `damage`.
[[nodiscard]] util::Result<NetflowV5Packet> decode_netflow_v5(
    std::span<const std::uint8_t> data, util::Timestamp boot_time);

/// Streaming exporter: buffers flows and emits full PDUs, maintaining the
/// flow_sequence counter across packets.
class NetflowV5Exporter {
 public:
  explicit NetflowV5Exporter(NetflowV5ExportConfig config) noexcept
      : config_(config) {}

  /// Adds a flow; returns an encoded PDU when the buffer reached a full PDU.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> add(
      const FlowRecord& flow, util::Timestamp now);
  /// Flushes any buffered flows into a final (possibly short) PDU.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> flush(util::Timestamp now);

  [[nodiscard]] std::uint32_t sequence() const noexcept { return sequence_; }

 private:
  NetflowV5ExportConfig config_;
  FlowList pending_;
  std::uint32_t sequence_ = 0;
};

}  // namespace booterscope::flow
