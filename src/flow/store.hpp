// In-memory flow data sets and a compact binary on-disk format.
//
// A FlowStore is what a vantage point hands to the analysis layer: a bag of
// flow records plus convenience filters. The on-disk format ("BSF1") is a
// straight big-endian serialization of FlowRecord for persisting simulated
// traces between runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flow/record.hpp"
#include "util/result.hpp"

namespace booterscope::flow {

namespace detail {
/// Bumps the global booterscope_store_added_flows_total counter; out of
/// line so the header does not pull in the registry.
void count_store_added(std::size_t n) noexcept;
}  // namespace detail

class FlowStore {
 public:
  FlowStore() = default;
  explicit FlowStore(FlowList flows) noexcept : flows_(std::move(flows)) {}

  void add(const FlowRecord& flow) {
    flows_.push_back(flow);
    detail::count_store_added(1);
  }
  void add(const FlowList& flows) {
    flows_.insert(flows_.end(), flows.begin(), flows.end());
    detail::count_store_added(flows.size());
  }

  [[nodiscard]] std::size_t size() const noexcept { return flows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return flows_.empty(); }
  [[nodiscard]] const FlowList& flows() const noexcept { return flows_; }
  [[nodiscard]] FlowList& flows() noexcept { return flows_; }

  /// Records matching a predicate.
  [[nodiscard]] FlowStore filter(
      const std::function<bool(const FlowRecord&)>& pred) const;

  /// UDP flows with the given destination port (the paper's reflector-bound
  /// traffic selector for Fig. 4).
  [[nodiscard]] FlowStore to_port(std::uint16_t dst_port) const;
  /// UDP flows with the given source port (reflector-to-victim traffic).
  [[nodiscard]] FlowStore from_port(std::uint16_t src_port) const;

  /// Sorts by flow start time (analyses assume chronological order).
  void sort_by_time();

  /// Total scaled packets / bytes across all records.
  [[nodiscard]] double total_scaled_packets() const noexcept;
  [[nodiscard]] double total_scaled_bytes() const noexcept;

 private:
  FlowList flows_;
};

/// Serializes a flow list to the BSF1 binary format.
[[nodiscard]] std::vector<std::uint8_t> serialize_flows(
    std::span<const FlowRecord> flows);

/// Deserializes BSF1 bytes. Fatal only on a bad magic or a header too short
/// to carry the record count; a truncated body salvages the whole-record
/// prefix, reporting the shortfall via `damage` (when non-null) and the
/// decode metrics. The declared 64-bit count is never trusted for
/// allocation: it is checked against the actual byte count first.
[[nodiscard]] util::Result<FlowList> deserialize_flows(
    std::span<const std::uint8_t> data,
    util::DecodeDamage* damage = nullptr);

/// Writes/reads BSF1 files, retrying transient I/O failures with capped
/// exponential backoff (retries counted in
/// booterscope_store_io_retries_total). write returns false when all
/// attempts fail; read reports DecodeError::kIo (missing files are not
/// retried).
[[nodiscard]] bool write_flow_file(const std::string& path,
                                   std::span<const FlowRecord> flows);
[[nodiscard]] util::Result<FlowList> read_flow_file(
    const std::string& path, util::DecodeDamage* damage = nullptr);

}  // namespace booterscope::flow
