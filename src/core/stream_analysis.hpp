// One-pass analysis sinks for the streaming flow engine (DESIGN.md §14).
//
// StreamAnalysis is the one series path behind every takedown verdict: it
// consumes columnar FlowBatchViews as the landscape drains (directly, or
// through sim::run_landscape's `analysis` tee when the caller also keeps
// the flows) and maintains, in one pass,
//   - every configured daily BinnedSeries (to-port and from-reflectors
//     selectors, the Fig. 4 panels),
//   - optionally the hourly attacked-systems series (Fig. 5), finalizing
//     and freeing each hour's VictimAggregator at day_complete barriers,
//   - outage filtering against a FaultPlan with the same integrity
//     accounting the materialized store-boundary filter performs.
//
// Rows arrive in the producer's deterministic order (equal to a serial scan
// of the merged FlowStores — see sim/landscape_stream.hpp), and every bin
// contribution is an integer-valued double (scaled packet counts), so the
// series are byte-identical at any pool size and batch capacity. The
// equivalence suite in tests/integration/stream_equivalence_test.cpp pins
// this against a test-only serial scan of the materialized stores
// (tests/integration/series_reference.hpp).
//
// TakedownAccumulator is the Welford end of the pipeline: it consumes
// (day, value, coverage) triples online and produces wtN/redN verdicts from
// running moments via welch_t_test_from_stats, so even the per-day series
// need not be resident for verdict-only consumers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/classify.hpp"
#include "core/takedown.hpp"
#include "core/victims.hpp"
#include "fault/fault.hpp"
#include "flow/batch.hpp"
#include "stats/timeseries.hpp"
#include "stats/welch.hpp"
#include "util/annotations.hpp"

namespace booterscope::core {

/// One daily series to build during the streaming pass.
struct SeriesSpec {
  enum class Kind : std::uint8_t {
    kToPort,          // is_to_reflector_flow(f, port)
    kFromReflectors,  // is_reflection_flow(f, filter)
  };

  std::string name;  // caller's label, for accessors and reports
  std::size_t vantage = flow::kVantageIxp;
  Kind kind = Kind::kToPort;
  std::uint16_t port = 0;          // kToPort selector
  OptimisticFilterConfig filter;   // kFromReflectors selector
};

class StreamAnalysis : public flow::FlowBatchSink {
 public:
  StreamAnalysis(util::Timestamp start, int days,
                 std::vector<SeriesSpec> specs);

  /// Adds the Fig. 5 hourly attacked-systems pass over `vantage`. Hours
  /// strictly before each day_complete barrier are summarized and freed,
  /// so resident aggregator state is bounded by ~one day of hours.
  void enable_hourly_victims(std::size_t vantage,
                             const ConservativeFilterConfig& filter);

  /// Engages outage filtering: rows inside an outage window of their
  /// vantage are dropped before any series sees them, with the same
  /// offered/dropped/clean integrity accounting as the materialized
  /// store-boundary filter. Both pointers must outlive the sink.
  void set_fault_plan(const fault::FaultPlan* plan,
                      fault::IntegrityTally* tally);

  void consume(std::size_t vantage, const flow::FlowBatchView& batch) override;
  void day_complete(int day, util::Timestamp day_start) override;

  /// Finalizes the pass: summarizes remaining victim hours and emits the
  /// per-series scanned/selected metrics counters. Call once after the
  /// producer returns; accessors below are valid afterwards.
  void finish();

  [[nodiscard]] std::size_t series_count() const noexcept {
    return specs_.size();
  }
  [[nodiscard]] const SeriesSpec& spec(std::size_t i) const noexcept {
    return specs_[i].spec;
  }
  [[nodiscard]] const stats::BinnedSeries& series(std::size_t i) const noexcept {
    return specs_[i].series;
  }
  /// Mutable access for coverage stamping after the run.
  [[nodiscard]] stats::BinnedSeries& mutable_series(std::size_t i) noexcept {
    return specs_[i].series;
  }
  [[nodiscard]] bool hourly_enabled() const noexcept {
    return victims_ != nullptr;
  }
  [[nodiscard]] const stats::BinnedSeries& hourly_victims() const noexcept {
    return victims_->series;
  }
  [[nodiscard]] stats::BinnedSeries& mutable_hourly_victims() noexcept {
    return victims_->series;
  }
  /// Rows that survived outage filtering, per vantage slot (equals rows
  /// delivered when no fault plan is set).
  [[nodiscard]] std::uint64_t kept_flows(std::size_t vantage) const noexcept {
    return kept_[vantage];
  }
  [[nodiscard]] std::uint64_t total_kept_flows() const noexcept {
    return kept_[0] + kept_[1] + kept_[2];
  }

 private:
  struct SpecState {
    SeriesSpec spec;
    stats::BinnedSeries series;
    std::uint64_t selected = 0;
  };
  /// Fig. 5 state: live per-hour aggregators, finalized into the hourly
  /// series as day barriers pass.
  struct VictimState {
    VictimState(util::Timestamp start, int days, std::size_t vantage_slot,
                const ConservativeFilterConfig& f)
        : vantage(vantage_slot),
          filter(f),
          aggregator_config{f, util::Duration::minutes(1)},
          series(start, util::Duration::hours(1),
                 static_cast<std::size_t>(days) * 24) {}

    std::size_t vantage;
    ConservativeFilterConfig filter;
    VictimAggregatorConfig aggregator_config;
    stats::BinnedSeries series;
    std::map<std::int64_t, VictimAggregator> hours;
    std::uint64_t selected = 0;
  };

  void finalize_hours_before(util::Timestamp bound);

  util::Timestamp start_;
  int days_;
  std::vector<SpecState> specs_;
  std::unique_ptr<VictimState> victims_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  fault::IntegrityTally* integrity_ = nullptr;
  std::uint64_t kept_[flow::kVantageCount] = {0, 0, 0};
  std::uint64_t offered_[flow::kVantageCount] = {0, 0, 0};
  std::uint64_t outage_dropped_[flow::kVantageCount] = {0, 0, 0};
  bool finished_ = false;
  util::ConcurrencyGuard guard_;
};

/// Online wtN/redN: consumes one (day, value, coverage) triple per daily bin
/// and keeps only Welford moments per window side — the series itself never
/// needs to be resident. Window membership and coverage exclusion replicate
/// stats::windows_around exactly, and the verdict comes from
/// welch_t_test_from_stats, so the result is byte-identical to
/// takedown_metrics on the materialized series.
class TakedownAccumulator {
 public:
  explicit TakedownAccumulator(util::Timestamp event, double alpha = 0.05,
                               double min_coverage = kDefaultMinCoverage);

  /// Feed the bin whose start is `day_start` (daily bins, any order).
  void add_day(util::Timestamp day_start, double value, double coverage = 1.0);

  /// Convenience: feed every bin of a finished daily series.
  void add_series(const stats::BinnedSeries& daily);

  [[nodiscard]] TakedownMetrics finish() const;

 private:
  struct Window {
    int days = 0;
    stats::RunningStats before;
    stats::RunningStats after;
    std::size_t before_excluded = 0;
    std::size_t after_excluded = 0;
  };

  void feed(Window& w, util::Timestamp day_start, double value,
            double coverage);
  [[nodiscard]] WindowMetrics window_metrics(const Window& w) const;

  util::Timestamp event_day_;
  double alpha_;
  double min_coverage_;
  Window wt30_;
  Window wt40_;
};

}  // namespace booterscope::core
