// IPFIX (RFC 7011) subset codec — the export format of the IXP vantage point.
//
// Supported: message header, template sets (set id 2), data sets referencing
// previously seen templates, per-(observation domain, template id) template
// caches, and the information elements needed to round-trip FlowRecord.
// Unknown information elements are skipped by length, as the RFC requires.
// Not supported (not needed for the study): options templates, variable-
// length IEs, enterprise-specific IEs.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "flow/decode_options.hpp"
#include "flow/record.hpp"
#include "util/result.hpp"

namespace booterscope::flow::ipfix {

/// IANA information element ids used by the canonical template.
enum class Ie : std::uint16_t {
  kOctetDeltaCount = 1,
  kPacketDeltaCount = 2,
  kProtocolIdentifier = 4,
  kSourceTransportPort = 7,
  kSourceIpv4Address = 8,
  kDestinationTransportPort = 11,
  kDestinationIpv4Address = 12,
  kBgpSourceAsNumber = 16,
  kBgpDestinationAsNumber = 17,
  kFlowDirection = 61,
  kBgpNextAdjacentAsNumber = 128,
  kFlowStartMilliseconds = 152,
  kFlowEndMilliseconds = 153,
  kSamplingPacketInterval = 305,
};

struct TemplateField {
  std::uint16_t ie_id = 0;
  std::uint16_t length = 0;
};

struct Template {
  std::uint16_t id = 0;  // must be >= 256
  std::vector<TemplateField> fields;

  [[nodiscard]] std::size_t record_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& f : fields) total += f.length;
    return total;
  }
};

/// The template booterscope exporters announce: every FlowRecord field.
[[nodiscard]] const Template& canonical_template();

inline constexpr std::uint16_t kIpfixVersion = 10;
inline constexpr std::uint16_t kTemplateSetId = 2;
inline constexpr std::uint16_t kFirstDataSetId = 256;
inline constexpr std::size_t kMessageHeaderBytes = 16;

/// Encodes flows as one IPFIX message carrying a template set followed by a
/// data set (self-describing message; real exporters resend templates
/// periodically, which this models by always including it).
[[nodiscard]] std::vector<std::uint8_t> encode_message(
    std::span<const FlowRecord> flows, std::uint32_t observation_domain,
    std::uint32_t sequence, util::Timestamp export_time);

/// Stateful decoder: caches templates (bounded, FIFO eviction) per
/// observation domain and decodes data sets that reference them. Fatal only
/// on unusable framing (truncated/short header, wrong version) or — when
/// enabled — a duplicate export sequence; a truncated message body, a
/// malformed template or an unknown data set degrades instead: whole records
/// are salvaged and the defects tallied in the message's `damage`.
class MessageDecoder {
 public:
  explicit MessageDecoder(DecoderOptions options = {}) noexcept
      : options_(options) {}

  struct Message {
    util::Timestamp export_time;
    std::uint32_t sequence = 0;
    std::uint32_t observation_domain = 0;
    FlowList records;
    std::uint32_t templates_seen = 0;
    std::uint32_t skipped_sets = 0;  // data sets with no known template
    /// Recoverable defects skipped while decoding this message.
    util::DecodeDamage damage;
  };

  [[nodiscard]] util::Result<Message> decode(std::span<const std::uint8_t> data);

  [[nodiscard]] std::size_t cached_template_count() const noexcept {
    return templates_.size();
  }
  [[nodiscard]] std::uint64_t templates_evicted() const noexcept {
    return templates_evicted_;
  }
  [[nodiscard]] std::uint64_t duplicates_rejected() const noexcept {
    return duplicates_rejected_;
  }

 private:
  struct TemplateKey {
    std::uint32_t domain;
    std::uint16_t id;
    bool operator==(const TemplateKey&) const = default;
  };
  struct TemplateKeyHash {
    std::size_t operator()(const TemplateKey& k) const noexcept {
      return (static_cast<std::size_t>(k.domain) << 16) ^ k.id;
    }
  };

  /// Caches `tmpl`, evicting the oldest cached template when full.
  void cache_template(const TemplateKey& key, Template tmpl);
  /// True when (domain, sequence) was already seen; records it otherwise.
  [[nodiscard]] bool is_duplicate(std::uint32_t domain, std::uint32_t sequence);

  DecoderOptions options_;
  std::unordered_map<TemplateKey, Template, TemplateKeyHash> templates_;
  std::deque<TemplateKey> template_order_;  // FIFO eviction order
  std::unordered_map<std::uint32_t, std::deque<std::uint32_t>> recent_sequences_;
  std::uint64_t templates_evicted_ = 0;
  std::uint64_t duplicates_rejected_ = 0;
};

}  // namespace booterscope::flow::ipfix
