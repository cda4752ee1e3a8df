// The landscape engine (DESIGN.md §9): the one engine behind every
// landscape run, streaming or materialized.
//
// The run is sharded by simulated day. Every shard derives its randomness
// with util::Rng::split(seed, label, day) — a pure function of the master
// seed and the day index, never of thread identity. The booter market is
// built once per run and stepped forward one day at a time; each shard gets
// its own copy of the day's market (reflector lists are flat, so a copy is
// a few memcpys), which keeps the run's market work linear in its length.
// At most `max_inflight_days` shards are resident: the driver drains day d
// — vantage-major within a day (IXP, tier-1, tier-2) — into a
// FlowBatchSink as fixed-size columnar batches while the pool produces the
// rest of the window, then frees d and submits day d + window. Peak RSS is
// O(inflight shards + sink state), flat in run length, which is what lets
// --attacks-per-day climb from 300 toward the paper's inferred ~20 000.
//
// The delivered rows are byte-identical at any pool size (including 1)
// and any batch capacity. A materialized run (sim::run_landscape) is this
// engine draining into a flow::CollectingSink.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/batch.hpp"
#include "obs/trace.hpp"
#include "sim/landscape.hpp"
#include "exec/thread_pool.hpp"

namespace booterscope::sim {

struct StreamOptions {
  /// Rows per emitted batch. Partial batches flush at each (day, vantage)
  /// boundary, so capacity only bounds — never determines — sink input.
  std::size_t batch_flows = flow::FlowBatch::kDefaultCapacity;
  /// Day shards resident at once (the memory bound). 0 = 2x pool size.
  std::size_t max_inflight_days = 0;
};

/// Optional observer for the non-flow ground truth, delivered in day order
/// alongside the flow drain (the streaming analogue of
/// LandscapeResult::attacks / honeypot_log).
class GroundTruthSink {
 public:
  virtual ~GroundTruthSink() = default;
  virtual void on_attacks(std::span<const AttackRecord> attacks) = 0;
  virtual void on_honeypot_log(std::span<const HoneypotObservation> log) = 0;
};

/// What a streaming run retains: bounded-size totals only.
struct StreamSummary {
  LandscapeConfig config;
  std::vector<BooterProfile> market;
  std::uint64_t attack_count = 0;
  std::uint64_t honeypot_observations = 0;
  /// Flows delivered per vantage slot (pre-sink; sinks may drop more).
  std::array<std::uint64_t, flow::kVantageCount> vantage_flows{};
  std::uint64_t batches = 0;
  /// Plain fields, kept under BOOTERSCOPE_NO_METRICS like the rest.
  EngineWork work;

  [[nodiscard]] std::uint64_t total_flows() const noexcept {
    return vantage_flows[0] + vantage_flows[1] + vantage_flows[2];
  }
};

[[nodiscard]] StreamSummary run_landscape_stream(
    const Internet& internet, const LandscapeConfig& config,
    exec::ThreadPool& pool, flow::FlowBatchSink& sink,
    const StreamOptions& options = {}, obs::StageTracer* tracer = nullptr,
    GroundTruthSink* truth = nullptr);

}  // namespace booterscope::sim
