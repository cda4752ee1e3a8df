// Test-only reference for the takedown series: plain serial scans over a
// materialized flow list, written as directly as the paper states the
// selectors. core::StreamAnalysis is the production path; the equivalence
// suite checks it bin for bin against these scans of the collected stores.
#pragma once

#include <cstdint>
#include <map>

#include "core/classify.hpp"
#include "core/victims.hpp"
#include "flow/record.hpp"
#include "stats/timeseries.hpp"
#include "util/time.hpp"

namespace booterscope::scan {

/// Daily scaled-packet series of traffic *to* a reflector port (dst port)
/// over [start, start + days).
[[nodiscard]] inline stats::BinnedSeries daily_packets_to_port(
    const flow::FlowList& flows, std::uint16_t service_port,
    util::Timestamp start, int days) {
  stats::BinnedSeries series(start, util::Duration::days(1),
                             static_cast<std::size_t>(days));
  for (const flow::FlowRecord& f : flows) {
    if (core::is_to_reflector_flow(f, service_port)) {
      series.add(f.first, f.scaled_packets());
    }
  }
  return series;
}

/// Daily scaled-packet series of reflection traffic *from* a service port
/// to victims (optimistic filter).
[[nodiscard]] inline stats::BinnedSeries daily_packets_from_reflectors(
    const flow::FlowList& flows, const core::OptimisticFilterConfig& filter,
    util::Timestamp start, int days) {
  stats::BinnedSeries series(start, util::Duration::days(1),
                             static_cast<std::size_t>(days));
  for (const flow::FlowRecord& f : flows) {
    if (core::is_reflection_flow(f, filter)) {
      series.add(f.first, f.scaled_packets());
    }
  }
  return series;
}

/// Hourly count of distinct systems under attack per the conservative
/// filter (Fig. 5). Flows are attributed to the hour of their start.
[[nodiscard]] inline stats::BinnedSeries hourly_attacked_systems(
    const flow::FlowList& flows, const core::ConservativeFilterConfig& filter,
    util::Timestamp start, int days) {
  std::map<std::int64_t, core::VictimAggregator> hours;
  const core::VictimAggregatorConfig aggregator_config{
      filter, util::Duration::minutes(1)};
  for (const flow::FlowRecord& f : flows) {
    if (!core::is_reflection_flow(f, filter.optimistic)) continue;
    const std::int64_t hour = f.first.floor_to(util::Duration::hours(1)).nanos();
    hours.try_emplace(hour, aggregator_config).first->second.add(f);
  }

  stats::BinnedSeries series(start, util::Duration::hours(1),
                             static_cast<std::size_t>(days) * 24);
  for (const auto& [hour_ns, aggregator] : hours) {
    std::uint64_t attacked = 0;
    for (const core::VictimSummary& summary : aggregator.summarize()) {
      if (summary.verdict.conservative()) ++attacked;
    }
    series.add(util::Timestamp::from_nanos(hour_ns),
               static_cast<double>(attacked));
  }
  return series;
}

}  // namespace booterscope::scan
