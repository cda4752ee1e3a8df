// Multi-vantage flow collection on the thread pool.
//
// The paper's measurement has three independent exporters (IXP, tier-1,
// tier-2 ISP), each a sampler → flow-cache → store chain over its own
// packet feed. The chains never share state, so each runs complete on one
// pool worker; outputs land in index-addressed slots and are merged with a
// deterministic ordered merge afterwards. Determinism contract (DESIGN.md
// §9): replay order is (first, five-tuple)-sorted, sampler streams come
// from util::Rng::split on the chain's seed — never from thread identity —
// so any pool size, including 1, produces identical bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "flow/collector.hpp"
#include "flow/record.hpp"
#include "obs/trace.hpp"
#include "exec/thread_pool.hpp"
#include "util/time.hpp"

namespace booterscope::exec {

/// One vantage's exporter chain: which flows it sees and how it samples,
/// caches and expires them.
struct VantageChainSpec {
  std::string name;  // "ixp" / "tier1" / ... — used for stage labels
  /// Simulator truth for this vantage; not owned, must outlive the run.
  const flow::FlowList* input = nullptr;
  flow::CollectorConfig collector;
  std::uint32_t sampling = 1;  // probabilistic 1-in-N in front of the cache
  /// Seed of the chain's sampler stream (split per chain index, so two
  /// chains with the same seed still sample independently).
  std::uint64_t sampler_seed = 0;
  /// Cadence of collector expiry sweeps during the replay.
  util::Duration expire_every = util::Duration::hours(6);
  /// Optional fault schedule (not owned, must outlive the run). When set,
  /// flows falling into this vantage's outage windows are dropped before
  /// the sampler — the exporter was dark — and exported timestamps carry
  /// the vantage's clock skew.
  const fault::FaultPlan* fault_plan = nullptr;
  std::size_t vantage_index = 0;
};

/// What one chain produced, plus its exact accounting.
struct VantageChainOutput {
  std::string name;
  flow::FlowList exported;
  std::uint64_t offered_packets = 0;
  std::uint64_t sampled_out_packets = 0;
  flow::CollectorStats stats;
  /// Flows withheld by the fault plan's outage windows (never offered).
  std::uint64_t outage_dropped_flows = 0;
  /// A chain that throws is quarantined: its output is empty, `error`
  /// carries the reason, and the run continues with the other vantages.
  bool quarantined = false;
  std::string error;
};

/// Runs every chain on the pool (one worker each) and returns outputs in
/// spec order. Each chain sorts its input by (first, five-tuple), replays
/// it through the sampler and collector with periodic expiry, then drains.
/// The conservation identity
///   offered == sampled_out + exported (by reason) + cached(== 0 after drain)
/// holds for every output. Each chain is a `chain:<name>` stage opened on
/// its worker, nested under `vantage_chains`. A chain that fails (throws,
/// or has a null input) is quarantined — marked in its output and by a
/// `quarantined:<name>` stage — instead of taking the whole run down.
[[nodiscard]] std::vector<VantageChainOutput> run_vantage_chains(
    const std::vector<VantageChainSpec>& specs, ThreadPool& pool,
    obs::StageTracer* tracer = nullptr);

/// Deterministic ordered merge of per-chain exports into one time-ordered
/// list for the takedown time-series: sorted by (first, five-tuple), with
/// chain order (spec index) breaking remaining ties. Stable for any pool
/// size because the inputs already are.
[[nodiscard]] flow::FlowList merge_exports_by_time(
    const std::vector<VantageChainOutput>& outputs);

}  // namespace booterscope::exec
