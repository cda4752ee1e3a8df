#include "core/stream_analysis.hpp"

#include <limits>
#include <utility>

#include "obs/metrics.hpp"

namespace booterscope::core {

namespace {

/// One series pass: counts scanned and selected flows per series kind so a
/// shifted wtN/redN can be traced to its input population.
void count_series_pass(std::string_view kind, std::uint64_t scanned,
                       std::uint64_t selected) {
  obs::MetricsRegistry& registry = obs::metrics();
  const obs::Labels labels{{"kind", std::string(kind)}};
  registry.counter("booterscope_takedown_series_built_total", labels).inc();
  registry.counter("booterscope_takedown_scanned_flows_total", labels)
      .add(scanned);
  registry.counter("booterscope_takedown_selected_flows_total", labels)
      .add(selected);
}

constexpr const char* kVantageNames[flow::kVantageCount] = {"ixp", "tier1",
                                                            "tier2"};

}  // namespace

StreamAnalysis::StreamAnalysis(util::Timestamp start, int days,
                               std::vector<SeriesSpec> specs)
    : start_(start), days_(days) {
  specs_.reserve(specs.size());
  for (SeriesSpec& spec : specs) {
    SpecState state{std::move(spec),
                    stats::BinnedSeries(start, util::Duration::days(1),
                                        static_cast<std::size_t>(days)),
                    0};
    specs_.push_back(std::move(state));
  }
}

void StreamAnalysis::enable_hourly_victims(
    std::size_t vantage, const ConservativeFilterConfig& filter) {
  victims_ = std::make_unique<VictimState>(start_, days_, vantage, filter);
}

void StreamAnalysis::set_fault_plan(const fault::FaultPlan* plan,
                                    fault::IntegrityTally* tally) {
  fault_plan_ = plan;
  integrity_ = tally;
}

void StreamAnalysis::consume(std::size_t vantage,
                             const flow::FlowBatchView& batch) {
  const util::ConcurrencyGuard::Scope scope(guard_, "StreamAnalysis::consume");
  const std::size_t n = batch.size();
  offered_[vantage] += n;
  for (std::size_t i = 0; i < n; ++i) {
    // Outage windows act before any analysis sees the row — the streaming
    // equivalent of the materialized store-boundary filter.
    if (fault_plan_ != nullptr &&
        fault_plan_->out_at(vantage, batch.first[i])) {
      ++outage_dropped_[vantage];
      continue;
    }
    ++kept_[vantage];
    for (SpecState& state : specs_) {
      if (state.spec.vantage != vantage) continue;
      const bool selected =
          state.spec.kind == SeriesSpec::Kind::kToPort
              ? is_to_reflector_flow(batch, i, state.spec.port)
              : is_reflection_flow(batch, i, state.spec.filter);
      if (selected) {
        state.series.add(batch.first[i], batch.scaled_packets(i));
        ++state.selected;
      }
    }
    if (victims_ != nullptr && victims_->vantage == vantage) {
      if (is_reflection_flow(batch, i, victims_->filter.optimistic)) {
        const std::int64_t hour =
            batch.first[i].floor_to(util::Duration::hours(1)).nanos();
        auto [it, inserted] =
            victims_->hours.try_emplace(hour, victims_->aggregator_config);
        it->second.add(batch.record(i));
        ++victims_->selected;
      }
    }
  }
}

void StreamAnalysis::day_complete(int /*day*/, util::Timestamp day_start) {
  const util::ConcurrencyGuard::Scope scope(guard_,
                                            "StreamAnalysis::day_complete");
  // Shard d only emits flows with first >= day_d (run_day_shard in
  // sim/landscape_stream.cpp), so every hour strictly before this barrier
  // has seen its last row.
  finalize_hours_before(day_start);
}

void StreamAnalysis::finalize_hours_before(util::Timestamp bound) {
  if (victims_ == nullptr) return;
  auto it = victims_->hours.begin();
  while (it != victims_->hours.end() &&
         util::Timestamp::from_nanos(it->first) < bound) {
    std::uint64_t count = 0;
    for (const VictimSummary& summary : it->second.summarize()) {
      if (summary.verdict.conservative()) ++count;
    }
    victims_->series.add(util::Timestamp::from_nanos(it->first),
                         static_cast<double>(count));
    it = victims_->hours.erase(it);
  }
}

void StreamAnalysis::finish() {
  if (finished_) return;
  finished_ = true;
  finalize_hours_before(
      util::Timestamp::from_nanos(std::numeric_limits<std::int64_t>::max()));
  // Every kept row of a series' vantage was scanned by its selector.
  for (const SpecState& state : specs_) {
    count_series_pass(state.spec.kind == SeriesSpec::Kind::kToPort
                          ? "to_port"
                          : "from_reflectors",
                      kept_[state.spec.vantage], state.selected);
  }
  if (victims_ != nullptr) {
    count_series_pass("attacked_systems", kept_[victims_->vantage],
                      victims_->selected);
  }
  if (fault_plan_ != nullptr && integrity_ != nullptr) {
    for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
      integrity_->offered += offered_[v];
      integrity_->dropped_by_fault += outage_dropped_[v];
      integrity_->decoded_clean += kept_[v];
      obs::metrics()
          .counter("booterscope_fault_outage_dropped_flows_total",
                   {{"vantage", kVantageNames[v]}})
          .add(outage_dropped_[v]);
    }
  }
}

TakedownAccumulator::TakedownAccumulator(util::Timestamp event, double alpha,
                                         double min_coverage)
    : event_day_(event.floor_to(util::Duration::days(1))),
      alpha_(alpha),
      min_coverage_(min_coverage) {
  wt30_.days = 30;
  wt40_.days = 40;
}

void TakedownAccumulator::feed(Window& w, util::Timestamp day_start,
                               double value, double coverage) {
  const util::Timestamp before_from =
      event_day_ - util::Duration::days(w.days);
  const util::Timestamp after_from = event_day_ + util::Duration::days(1);
  const util::Timestamp after_to =
      event_day_ + util::Duration::days(w.days + 1);
  if (day_start >= before_from && day_start < event_day_) {
    if (coverage < min_coverage_) {
      ++w.before_excluded;
    } else {
      w.before.add(value);
    }
  } else if (day_start >= after_from && day_start < after_to) {
    if (coverage < min_coverage_) {
      ++w.after_excluded;
    } else {
      w.after.add(value);
    }
  }
}

void TakedownAccumulator::add_day(util::Timestamp day_start, double value,
                                  double coverage) {
  feed(wt30_, day_start, value, coverage);
  feed(wt40_, day_start, value, coverage);
}

void TakedownAccumulator::add_series(const stats::BinnedSeries& daily) {
  for (std::size_t i = 0; i < daily.bin_count(); ++i) {
    add_day(daily.bin_start(i), daily.at(i), daily.coverage(i));
  }
}

WindowMetrics TakedownAccumulator::window_metrics(const Window& w) const {
  WindowMetrics metrics;
  metrics.window_days = w.days;
  metrics.welch = stats::welch_t_test_from_stats(w.before, w.after);
  metrics.significant = metrics.welch.significant_reduction(alpha_);
  metrics.reduction = metrics.welch.reduction_ratio();
  metrics.effective_before_days = static_cast<int>(w.before.count());
  metrics.effective_after_days = static_cast<int>(w.after.count());
  metrics.excluded_days =
      static_cast<int>(w.before_excluded + w.after_excluded);
  return metrics;
}

TakedownMetrics TakedownAccumulator::finish() const {
  return TakedownMetrics{window_metrics(wt30_), window_metrics(wt40_)};
}

}  // namespace booterscope::core
