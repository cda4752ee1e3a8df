#include "core/takedown.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/victims.hpp"
#include "obs/metrics.hpp"

namespace booterscope::core {

namespace {

/// One series-construction pass over a flow list: counts scanned and
/// selected flows per series kind so a shifted wtN/redN can be traced to
/// its input population.
void count_series_pass(std::string_view kind, std::size_t scanned,
                       std::size_t selected) {
  obs::MetricsRegistry& registry = obs::metrics();
  const obs::Labels labels{{"kind", std::string(kind)}};
  registry.counter("booterscope_takedown_series_built_total", labels).inc();
  registry.counter("booterscope_takedown_scanned_flows_total", labels)
      .add(scanned);
  registry.counter("booterscope_takedown_selected_flows_total", labels)
      .add(selected);
}

}  // namespace

stats::BinnedSeries daily_packets_to_port(const flow::FlowList& flows,
                                          std::uint16_t service_port,
                                          util::Timestamp start, int days) {
  stats::BinnedSeries series(start, util::Duration::days(1),
                             static_cast<std::size_t>(days));
  std::size_t selected = 0;
  for (const flow::FlowRecord& f : flows) {
    if (!is_to_reflector_flow(f, service_port)) continue;
    series.add(f.first, f.scaled_packets());
    ++selected;
  }
  count_series_pass("to_port", flows.size(), selected);
  return series;
}

stats::BinnedSeries daily_packets_from_reflectors(
    const flow::FlowList& flows, const OptimisticFilterConfig& filter,
    util::Timestamp start, int days) {
  stats::BinnedSeries series(start, util::Duration::days(1),
                             static_cast<std::size_t>(days));
  std::size_t selected = 0;
  for (const flow::FlowRecord& f : flows) {
    if (!is_reflection_flow(f, filter)) continue;
    series.add(f.first, f.scaled_packets());
    ++selected;
  }
  count_series_pass("from_reflectors", flows.size(), selected);
  return series;
}

stats::BinnedSeries hourly_attacked_systems(const flow::FlowList& flows,
                                            const ConservativeFilterConfig& filter,
                                            util::Timestamp start, int days) {
  // One aggregator per hour; flows are attributed to the hour of their
  // start (attack flows in this pipeline are minute-scale).
  std::map<std::int64_t, VictimAggregator> hours;
  const VictimAggregatorConfig aggregator_config{filter,
                                                 util::Duration::minutes(1)};
  std::size_t selected = 0;
  for (const flow::FlowRecord& f : flows) {
    if (!is_reflection_flow(f, filter.optimistic)) continue;
    const std::int64_t hour = f.first.floor_to(util::Duration::hours(1)).nanos();
    auto [it, inserted] = hours.try_emplace(hour, aggregator_config);
    it->second.add(f);
    ++selected;
  }
  count_series_pass("attacked_systems", flows.size(), selected);

  stats::BinnedSeries series(start, util::Duration::hours(1),
                             static_cast<std::size_t>(days) * 24);
  for (const auto& [hour_ns, aggregator] : hours) {
    std::uint64_t attacked = 0;
    for (const VictimSummary& summary : aggregator.summarize()) {
      if (summary.verdict.conservative()) ++attacked;
    }
    series.add(util::Timestamp::from_nanos(hour_ns),
               static_cast<double>(attacked));
  }
  return series;
}

namespace {

[[nodiscard]] WindowMetrics window_metrics(const stats::BinnedSeries& daily,
                                           util::Timestamp event, int days,
                                           double alpha, double min_coverage) {
  WindowMetrics metrics;
  metrics.window_days = days;
  const stats::EventWindows windows =
      stats::windows_around(daily, event, days, min_coverage);
  metrics.welch = stats::welch_t_test(windows.before, windows.after);
  metrics.significant = metrics.welch.significant_reduction(alpha);
  metrics.reduction = metrics.welch.reduction_ratio();
  metrics.effective_before_days = static_cast<int>(windows.before.size());
  metrics.effective_after_days = static_cast<int>(windows.after.size());
  metrics.excluded_days =
      static_cast<int>(windows.before_excluded + windows.after_excluded);
  if (metrics.excluded_days > 0) {
    obs::metrics()
        .counter("booterscope_takedown_excluded_days_total")
        .add(static_cast<std::uint64_t>(metrics.excluded_days));
  }
  return metrics;
}

}  // namespace

TakedownMetrics takedown_metrics(const stats::BinnedSeries& daily,
                                 util::Timestamp event, double alpha,
                                 double min_coverage) {
  obs::metrics().counter("booterscope_takedown_metrics_computed_total").inc();
  return TakedownMetrics{window_metrics(daily, event, 30, alpha, min_coverage),
                         window_metrics(daily, event, 40, alpha, min_coverage)};
}

TakedownMetrics takedown_metrics_rebinned(const stats::BinnedSeries& series,
                                          util::Timestamp event, double alpha,
                                          double min_coverage) {
  return takedown_metrics(series.rebin(util::Duration::days(1)), event, alpha,
                          min_coverage);
}

}  // namespace booterscope::core
