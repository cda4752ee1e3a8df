#include "exec/vantage_pipeline.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "flow/sampler.hpp"
#include "obs/metrics.hpp"

namespace booterscope::exec {

namespace {

/// Replay order: (first, five-tuple). A pure function of the record set,
/// so the chain consumes its sampler stream in the same sequence no matter
/// which worker runs it or how the producer ordered the list.
void sort_for_replay(flow::FlowList& flows) {
  std::sort(flows.begin(), flows.end(),
            [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.key() < b.key();
            });
}

void run_chain(const VantageChainSpec& spec, std::size_t index,
               VantageChainOutput& out) {
  out.name = spec.name;

  if (spec.input == nullptr) {
    // Caller programming error, not decode-path data: a null input is a
    // misconfigured chain spec, and run_vantage_chains quarantines throwing
    // chains rather than crashing the run (see PR 3's fault model).
    // bslint:allow(BS003 config validation, quarantined by the chain runner)
    throw std::invalid_argument("vantage chain '" + spec.name +
                                "' has no input");
  }
  flow::FlowList replay = *spec.input;
  sort_for_replay(replay);

  const util::Duration skew =
      spec.fault_plan != nullptr
          ? spec.fault_plan->clock_skew(spec.vantage_index)
          : util::Duration{};

  flow::SampledCollector exporter(
      spec.collector, spec.sampling,
      util::Rng::split(spec.sampler_seed, "sampler", index));
  if (!replay.empty()) {
    // The whole chain runs on the vantage's (possibly skewed) clock: a
    // constant shift preserves replay order, and expiry sweeps tick on the
    // same clock the observations carry.
    util::Timestamp next_expire =
        (replay.front().first + skew).floor_to(spec.expire_every) +
        spec.expire_every;
    for (const flow::FlowRecord& f : replay) {
      if (spec.fault_plan != nullptr &&
          spec.fault_plan->out_at(spec.vantage_index, f.first)) {
        ++out.outage_dropped_flows;
        continue;
      }
      const util::Timestamp local_time = f.first + skew;
      while (local_time >= next_expire) {
        exporter.expire(next_expire, out.exported);
        next_expire += spec.expire_every;
      }
      flow::PacketObservation p;
      p.time = local_time;
      p.tuple = f.key();
      p.wire_bytes = static_cast<std::uint32_t>(f.mean_packet_size());
      p.count = f.packets;
      p.src_asn = f.src_asn;
      p.dst_asn = f.dst_asn;
      p.peer_asn = f.peer_asn;
      p.direction = f.direction;
      exporter.observe(p, out.exported);
    }
  }
  exporter.drain(out.exported);

  out.offered_packets = exporter.offered_packets();
  out.sampled_out_packets = exporter.sampled_out_packets();
  out.stats = exporter.collector().stats();
}

}  // namespace

std::vector<VantageChainOutput> run_vantage_chains(
    const std::vector<VantageChainSpec>& specs, ThreadPool& pool,
    obs::StageTracer* tracer) {
  obs::StageTimer timer(tracer, "vantage_chains");
  std::vector<VantageChainOutput> outputs(specs.size());
  pool.parallel_for(specs.size(), [&](std::size_t i) {
    const std::uint64_t offered =
        specs[i].input != nullptr ? specs[i].input->size() : 0;
    try {
      obs::StageTimer chain(tracer, "chain:" + specs[i].name);
      chain.add_items_in(offered);
      run_chain(specs[i], i, outputs[i]);
      chain.add_items_out(outputs[i].exported.size());
    } catch (const std::exception& e) {
      // Quarantine: one broken vantage must not take down the run. The
      // chain's partial output is discarded (partial exports would break
      // per-chain conservation) and the failure is recorded for the
      // manifest's integrity block.
      const obs::StageTimer quarantined(tracer, "quarantined:" + specs[i].name);
      VantageChainOutput& out = outputs[i];
      out = VantageChainOutput{};
      out.name = specs[i].name;
      out.quarantined = true;
      out.error = e.what();
    }
  });
  // Let the tasks retire (their traced task records land after the last
  // body) so the caller may read or destroy the tracer on return.
  pool.wait_idle();

  obs::Counter& chains_metric =
      obs::metrics().counter("booterscope_exec_vantage_chains_total");
  obs::Counter& quarantined_metric =
      obs::metrics().counter("booterscope_exec_quarantined_chains_total");
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    chains_metric.inc();
    if (outputs[i].quarantined) quarantined_metric.inc();
    timer.add_items_in(specs[i].input != nullptr ? specs[i].input->size() : 0);
    timer.add_items_out(outputs[i].exported.size());
  }
  return outputs;
}

flow::FlowList merge_exports_by_time(
    const std::vector<VantageChainOutput>& outputs) {
  std::size_t total = 0;
  for (const VantageChainOutput& out : outputs) total += out.exported.size();
  flow::FlowList merged;
  merged.reserve(total);
  // Concatenate in chain (spec) order, then stable-sort: the sort key is
  // (first, five-tuple) and stability resolves remaining ties by chain
  // order. Both inputs and order are thread-count independent.
  for (const VantageChainOutput& out : outputs) {
    merged.insert(merged.end(), out.exported.begin(), out.exported.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
                     if (a.first != b.first) return a.first < b.first;
                     return a.key() < b.key();
                   });
  return merged;
}

}  // namespace booterscope::exec
