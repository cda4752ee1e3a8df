// Columnar (SoA) flow batches: the interchange unit of the streaming
// pipeline (DESIGN.md §14).
//
// Producers (the landscape simulator, the BSF1/NetFlow/IPFIX decoders, the
// FlowCollector) fill fixed-capacity `FlowBatch`es and hand zero-copy
// `FlowBatchView`s to a `FlowBatchSink`. Sinks accumulate bounded-size
// summaries (BinnedSeries bins, Welford moments, victim aggregates) so the
// full flow population is never resident; peak memory is
// `O(inflight batches + summary state)` regardless of run length.
//
// Determinism contract: a producer delivers rows in a fixed total order that
// does not depend on thread count or batch capacity — batch boundaries are
// allowed to move, row order is not. Sinks must therefore derive nothing
// from batch boundaries except `day_complete` barriers, which producers with
// a day-sharded timeline emit in day order after the last row of each day.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/record.hpp"

namespace booterscope::flow {

/// Zero-copy view of `size()` rows of columnar flow data. Spans alias the
/// producer's `FlowBatch` (or decoder scratch) and are valid only for the
/// duration of the `FlowBatchSink::consume` call they are passed to.
struct FlowBatchView {
  std::span<const net::Ipv4Addr> src;
  std::span<const net::Ipv4Addr> dst;
  std::span<const std::uint16_t> src_port;
  std::span<const std::uint16_t> dst_port;
  std::span<const net::IpProto> proto;
  std::span<const std::uint64_t> packets;
  std::span<const std::uint64_t> bytes;
  std::span<const util::Timestamp> first;
  std::span<const util::Timestamp> last;
  std::span<const net::Asn> src_asn;
  std::span<const net::Asn> dst_asn;
  std::span<const net::Asn> peer_asn;
  std::span<const Direction> direction;
  std::span<const std::uint32_t> sampling_rate;

  [[nodiscard]] std::size_t size() const noexcept { return src.size(); }
  [[nodiscard]] bool empty() const noexcept { return src.empty(); }

  /// Estimated original packet count of row `i` (counter * sampling rate).
  [[nodiscard]] double scaled_packets(std::size_t i) const noexcept {
    return static_cast<double>(packets[i]) * sampling_rate[i];
  }
  [[nodiscard]] double mean_packet_size(std::size_t i) const noexcept {
    return packets[i] == 0 ? 0.0
                           : static_cast<double>(bytes[i]) /
                                 static_cast<double>(packets[i]);
  }
  /// Materializes row `i` as an AoS record (cold paths and tests only; hot
  /// sinks should read the columns they need directly).
  [[nodiscard]] FlowRecord record(std::size_t i) const noexcept {
    return FlowRecord{src[i],     dst[i],     src_port[i], dst_port[i],
                      proto[i],   packets[i], bytes[i],    first[i],
                      last[i],    src_asn[i], dst_asn[i],  peer_asn[i],
                      direction[i], sampling_rate[i]};
  }
};

/// Owning fixed-capacity SoA buffer. Columns are reserved once at
/// construction; `clear()` keeps the allocations so one batch can be reused
/// for the whole run.
class FlowBatch {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit FlowBatch(std::size_t capacity = kDefaultCapacity);

  void push_back(const FlowRecord& f);
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return src_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return src_.empty(); }
  [[nodiscard]] bool full() const noexcept { return src_.size() >= capacity_; }

  [[nodiscard]] FlowBatchView view() const noexcept;

 private:
  std::size_t capacity_;
  std::vector<net::Ipv4Addr> src_;
  std::vector<net::Ipv4Addr> dst_;
  std::vector<std::uint16_t> src_port_;
  std::vector<std::uint16_t> dst_port_;
  std::vector<net::IpProto> proto_;
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> bytes_;
  std::vector<util::Timestamp> first_;
  std::vector<util::Timestamp> last_;
  std::vector<net::Asn> src_asn_;
  std::vector<net::Asn> dst_asn_;
  std::vector<net::Asn> peer_asn_;
  std::vector<Direction> direction_;
  std::vector<std::uint32_t> sampling_rate_;
};

/// Consumer end of the streaming pipeline. `consume` is invoked on the
/// producer's drain thread only (single-threaded by contract — producers
/// merge shard output in deterministic order before delivery); the view is
/// dead once the call returns.
class FlowBatchSink {
 public:
  virtual ~FlowBatchSink() = default;

  /// `vantage` tags the exporter slot the rows were observed at (the
  /// landscape uses kVantageIxp/kVantageTier1/kVantageTier2; single-source
  /// decoders pass 0).
  virtual void consume(std::size_t vantage, const FlowBatchView& batch) = 0;

  /// Day barrier: producers with a day-sharded timeline call this once per
  /// day, in day order, after the last row whose `first` timestamp can fall
  /// before `day_start`. Sinks may finalize and free state for earlier
  /// bins. Default: ignore.
  virtual void day_complete(int day, util::Timestamp day_start);
};

/// Landscape vantage slots, in drain order.
inline constexpr std::size_t kVantageIxp = 0;
inline constexpr std::size_t kVantageTier1 = 1;
inline constexpr std::size_t kVantageTier2 = 2;
inline constexpr std::size_t kVantageCount = 3;

/// Sink that materializes everything back into per-vantage FlowLists:
/// sim::run_landscape is the streaming engine draining into one. Rows are
/// appended with the FlowList's own geometric growth, so collecting N
/// batches reallocates O(log N) times, not once per batch.
class CollectingSink : public FlowBatchSink {
 public:
  explicit CollectingSink(std::size_t vantages = kVantageCount);

  void consume(std::size_t vantage, const FlowBatchView& batch) override;

  [[nodiscard]] const FlowList& flows(std::size_t vantage) const noexcept {
    return flows_[vantage];
  }
  [[nodiscard]] FlowList& flows(std::size_t vantage) noexcept {
    return flows_[vantage];
  }
  [[nodiscard]] std::size_t vantages() const noexcept { return flows_.size(); }

 private:
  std::vector<FlowList> flows_;
};

/// Tee: forwards every `consume` and `day_complete` to each sink, in the
/// order given, so one producer pass feeds several sinks (run_landscape's
/// CollectingSink plus the caller's analysis; one analysis per sweep point
/// in bench_ablate_outage). The sinks must outlive the fan-out.
class FanOutSink : public FlowBatchSink {
 public:
  explicit FanOutSink(std::vector<FlowBatchSink*> sinks);

  void consume(std::size_t vantage, const FlowBatchView& batch) override;
  void day_complete(int day, util::Timestamp day_start) override;

 private:
  std::vector<FlowBatchSink*> sinks_;
};

/// Row-at-a-time adapter: buffers pushes into a fixed-size batch and flushes
/// full batches to the sink. Callers own the final `flush()` — the
/// destructor asserts nothing is pending rather than flushing silently.
class FlowBatcher {
 public:
  FlowBatcher(FlowBatchSink& sink, std::size_t vantage,
              std::size_t batch_capacity = FlowBatch::kDefaultCapacity);

  void push(const FlowRecord& f);
  /// Delivers any pending partial batch. Safe to call when empty.
  void flush();

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::size_t pending() const noexcept { return batch_.size(); }

 private:
  FlowBatchSink* sink_;
  std::size_t vantage_;
  FlowBatch batch_;
  std::uint64_t delivered_ = 0;
};

}  // namespace booterscope::flow
