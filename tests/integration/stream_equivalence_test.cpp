// Streaming equivalence suite (DESIGN.md §14): the one-pass analysis must
// be *byte-identical* to serial scans over a materialized run (the
// test-only reference in series_reference.hpp) — same
// flows, same BinnedSeries values, same wtN/redN verdicts — at every pool
// size and batch capacity, with and without an engaged fault plan. These
// tests are the contract that lets bench_fig4/bench_fig5 analyze in one
// pass and lets CI diff their stdout bytes across threads and batch sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "fault/fault.hpp"
#include "flow/batch.hpp"
#include "net/protocol.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_stream.hpp"
#include "stats/welch.hpp"
#include "exec/thread_pool.hpp"
#include "series_reference.hpp"

namespace booterscope {
namespace {

using util::Duration;
using util::Timestamp;

constexpr std::size_t kPools[] = {1, 2, 8};
constexpr std::size_t kBatches[] = {64, 4096};

sim::LandscapeConfig tiny_config() {
  sim::LandscapeConfig config;
  config.start = Timestamp::parse("2018-12-01").value();
  config.days = 12;
  config.takedown = Timestamp::parse("2018-12-07").value();
  config.attacks_per_day = 40.0;
  config.victim_population = 500;
  return config;
}

/// The materialized reference, computed once: the per-vantage FlowStores
/// of sim::run_landscape (byte-identical at any pool size by its own
/// contract, so one pool size suffices as the reference).
struct Reference {
  sim::LandscapeConfig config;
  sim::LandscapeResult result;
};

const Reference& reference() {
  static const Reference ref = [] {
    Reference r;
    r.config = tiny_config();
    const sim::Internet internet{sim::InternetConfig{}};
    exec::ThreadPool pool(4);
    r.result = sim::run_landscape(internet, r.config, pool);
    return r;
  }();
  return ref;
}

const flow::FlowList& reference_flows(std::size_t vantage) {
  const auto& r = reference().result;
  switch (vantage) {
    case flow::kVantageIxp:
      return r.ixp.store.flows();
    case flow::kVantageTier1:
      return r.tier1.store.flows();
    default:
      return r.tier2.store.flows();
  }
}

/// CollectingSink that also checks the day_complete contract: barriers
/// arrive in day order, and no row with `first` before an already-passed
/// barrier is delivered afterwards.
class CheckingSink : public flow::CollectingSink {
 public:
  void consume(std::size_t vantage, const flow::FlowBatchView& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_GE(batch.first[i].nanos(), barrier_.nanos())
          << "row delivered after its day barrier";
    }
    flow::CollectingSink::consume(vantage, batch);
  }
  void day_complete(int day, Timestamp day_start) override {
    EXPECT_EQ(day, next_day_) << "day barriers out of order";
    ++next_day_;
    barrier_ = day_start;
  }

 private:
  int next_day_ = 0;
  Timestamp barrier_ = Timestamp::from_nanos(0);
};

[[nodiscard]] bool windows_equal(const core::WindowMetrics& a,
                                 const core::WindowMetrics& b) {
  return a.window_days == b.window_days && a.significant == b.significant &&
         a.welch.t_statistic == b.welch.t_statistic &&
         a.welch.degrees_of_freedom == b.welch.degrees_of_freedom &&
         a.welch.p_value_greater == b.welch.p_value_greater &&
         a.welch.p_value_two_sided == b.welch.p_value_two_sided &&
         a.welch.mean_before == b.welch.mean_before &&
         a.welch.mean_after == b.welch.mean_after &&
         a.reduction == b.reduction &&
         a.effective_before_days == b.effective_before_days &&
         a.effective_after_days == b.effective_after_days &&
         a.excluded_days == b.excluded_days;
}

std::vector<core::SeriesSpec> headline_specs() {
  std::vector<core::SeriesSpec> specs(2);
  specs[0].name = "ntp_ixp";
  specs[0].vantage = flow::kVantageIxp;
  specs[0].kind = core::SeriesSpec::Kind::kToPort;
  specs[0].port = net::ports::kNtp;
  specs[1].name = "control";
  specs[1].vantage = flow::kVantageIxp;
  specs[1].kind = core::SeriesSpec::Kind::kFromReflectors;
  return specs;
}

TEST(StreamEquivalence, DrainedFlowsMatchMaterializedAtEveryPoolAndBatch) {
  const auto& ref = reference();
  const sim::Internet internet{sim::InternetConfig{}};
  for (const std::size_t threads : kPools) {
    for (const std::size_t batch : kBatches) {
      exec::ThreadPool pool(threads);
      CheckingSink sink;
      sim::StreamOptions options;
      options.batch_flows = batch;
      const sim::StreamSummary summary = sim::run_landscape_stream(
          internet, ref.config, pool, sink, options);
      for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
        ASSERT_EQ(sink.flows(v), reference_flows(v))
            << "vantage " << v << " pool " << threads << " batch " << batch;
        EXPECT_EQ(summary.vantage_flows[v], reference_flows(v).size());
      }
      EXPECT_EQ(summary.attack_count, ref.result.attacks.size());
    }
  }
}

TEST(StreamEquivalence, SeriesAndVerdictsAreByteIdenticalToMaterialized) {
  const auto& ref = reference();
  const Timestamp takedown = *ref.config.takedown;

  // Materialized scan chain (serial: the streaming sink accumulates in
  // delivery order, which equals a serial scan of the collected stores).
  const auto expected_ntp = scan::daily_packets_to_port(
      reference_flows(flow::kVantageIxp), net::ports::kNtp, ref.config.start,
      ref.config.days);
  const auto expected_control = scan::daily_packets_from_reflectors(
      reference_flows(flow::kVantageIxp), {}, ref.config.start,
      ref.config.days);
  const auto expected_victims = scan::hourly_attacked_systems(
      reference_flows(flow::kVantageIxp), {}, ref.config.start,
      ref.config.days);

  const sim::Internet internet{sim::InternetConfig{}};
  for (const std::size_t threads : kPools) {
    for (const std::size_t batch : kBatches) {
      exec::ThreadPool pool(threads);
      core::StreamAnalysis analysis(ref.config.start, ref.config.days,
                                    headline_specs());
      analysis.enable_hourly_victims(flow::kVantageIxp, {});
      sim::StreamOptions options;
      options.batch_flows = batch;
      (void)sim::run_landscape_stream(internet, ref.config, pool, analysis,
                                      options);
      analysis.finish();

      // Exact double equality, bin for bin — not EXPECT_NEAR.
      EXPECT_EQ(analysis.series(0).values(), expected_ntp.values());
      EXPECT_EQ(analysis.series(1).values(), expected_control.values());
      EXPECT_EQ(analysis.hourly_victims().values(), expected_victims.values());

      const auto expected_metrics =
          core::takedown_metrics(expected_ntp, takedown);
      const auto streamed_metrics =
          core::takedown_metrics(analysis.series(0), takedown);
      EXPECT_TRUE(windows_equal(expected_metrics.wt30, streamed_metrics.wt30));
      EXPECT_TRUE(windows_equal(expected_metrics.wt40, streamed_metrics.wt40));

      EXPECT_EQ(analysis.total_kept_flows(),
                reference_flows(0).size() + reference_flows(1).size() +
                    reference_flows(2).size());
    }
  }
}

TEST(StreamEquivalence, OutageFilteringMatchesTheStoreBoundaryFilter) {
  const auto& ref = reference();
  const auto profile = fault::FaultProfile::parse("heavy");
  ASSERT_TRUE(profile && profile->enabled());
  const fault::FaultPlan plan(7, *profile, ref.config.start, ref.config.days,
                              flow::kVantageCount);

  // Materialized: the store-boundary filter bench::LandscapeWorld applies —
  // erase every flow whose vantage was dark at its start time, then build.
  fault::IntegrityTally expected_tally;
  flow::FlowList surviving;
  for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
    flow::FlowList flows = reference_flows(v);
    const std::size_t before = flows.size();
    std::erase_if(flows, [&](const flow::FlowRecord& f) {
      return plan.out_at(v, f.first);
    });
    expected_tally.offered += before;
    expected_tally.dropped_by_fault += before - flows.size();
    expected_tally.decoded_clean += flows.size();
    if (v == flow::kVantageIxp) surviving = std::move(flows);
  }
  auto expected = scan::daily_packets_to_port(surviving, net::ports::kNtp,
                                               ref.config.start,
                                               ref.config.days);
  plan.apply_coverage(expected, flow::kVantageIxp);

  // A faulted run is the same bytes at every pool size (DESIGN.md §10).
  const sim::Internet internet{sim::InternetConfig{}};
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    exec::ThreadPool pool(threads);
    fault::IntegrityTally tally;
    core::StreamAnalysis analysis(ref.config.start, ref.config.days,
                                  headline_specs());
    analysis.set_fault_plan(&plan, &tally);
    sim::StreamOptions options;
    options.batch_flows = 100;  // deliberately not a power of two
    (void)sim::run_landscape_stream(internet, ref.config, pool, analysis,
                                    options);
    analysis.finish();
    auto streamed = analysis.series(0);
    plan.apply_coverage(streamed, flow::kVantageIxp);

    EXPECT_EQ(streamed.values(), expected.values());
    EXPECT_EQ(tally.offered, expected_tally.offered);
    EXPECT_EQ(tally.dropped_by_fault, expected_tally.dropped_by_fault);
    EXPECT_EQ(tally.decoded_clean, expected_tally.decoded_clean);
    EXPECT_TRUE(tally.balanced());
    EXPECT_EQ(analysis.total_kept_flows(), expected_tally.decoded_clean);

    const auto em = core::takedown_metrics(expected, *ref.config.takedown);
    const auto sm = core::takedown_metrics(streamed, *ref.config.takedown);
    EXPECT_TRUE(windows_equal(em.wt30, sm.wt30));
    EXPECT_TRUE(windows_equal(em.wt40, sm.wt40));
  }
}

TEST(StreamEquivalence, RunLandscapeAnalysisTeeMatchesTheStreamAlone) {
  // run_landscape(..., &analysis) drains one pass into both its collector
  // and the caller's analysis: the stores must not change, and the series
  // must equal a stream-only run into the same analysis.
  const auto& ref = reference();
  const sim::Internet internet{sim::InternetConfig{}};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    exec::ThreadPool pool(threads);
    core::StreamAnalysis teed(ref.config.start, ref.config.days,
                              headline_specs());
    teed.enable_hourly_victims(flow::kVantageIxp, {});
    const sim::LandscapeResult result =
        sim::run_landscape(internet, ref.config, pool, nullptr, &teed);
    teed.finish();
    EXPECT_EQ(result.ixp.store.flows(), reference_flows(flow::kVantageIxp));
    EXPECT_EQ(result.tier1.store.flows(),
              reference_flows(flow::kVantageTier1));
    EXPECT_EQ(result.tier2.store.flows(),
              reference_flows(flow::kVantageTier2));
    EXPECT_EQ(result.attacks.size(), ref.result.attacks.size());

    core::StreamAnalysis alone(ref.config.start, ref.config.days,
                               headline_specs());
    alone.enable_hourly_victims(flow::kVantageIxp, {});
    (void)sim::run_landscape_stream(internet, ref.config, pool, alone);
    alone.finish();
    for (std::size_t i = 0; i < alone.series_count(); ++i) {
      EXPECT_EQ(teed.series(i).values(), alone.series(i).values()) << i;
    }
    EXPECT_EQ(teed.hourly_victims().values(), alone.hourly_victims().values());
    EXPECT_EQ(teed.total_kept_flows(), alone.total_kept_flows());
  }
}

TEST(StreamEquivalence, TakedownAccumulatorMatchesSeriesMetrics) {
  // A synthetic 90-day series with a clear post-event drop, plus coverage
  // gaps on both sides of the event so the exclusion accounting is
  // exercised, not just the happy path.
  const Timestamp start = Timestamp::parse("2018-10-01").value();
  const Timestamp event = start + Duration::days(45);
  stats::BinnedSeries daily(start, Duration::days(1), 90);
  for (int day = 0; day < 90; ++day) {
    const double base = day < 45 ? 1000.0 : 400.0;
    daily.add(start + Duration::days(day),
              base + 37.0 * ((day * 7919) % 13));
  }
  daily.set_coverage(20, 0.5);   // wt30/wt40 before-window exclusion
  daily.set_coverage(50, 0.0);   // after-window exclusion
  daily.set_coverage(80, 0.9);   // above threshold: must NOT be excluded

  const core::TakedownMetrics expected = core::takedown_metrics(daily, event);
  core::TakedownAccumulator accumulator(event);
  accumulator.add_series(daily);
  const core::TakedownMetrics online = accumulator.finish();

  EXPECT_TRUE(windows_equal(expected.wt30, online.wt30));
  EXPECT_TRUE(windows_equal(expected.wt40, online.wt40));
  EXPECT_GT(expected.wt30.excluded_days, 0);

  // Feeding per-day (in scrambled order) must agree too: the accumulator
  // is order-independent by construction of the per-window membership...
  core::TakedownAccumulator forward(event);
  for (std::size_t bin = 0; bin < daily.bin_count(); ++bin) {
    forward.add_day(daily.bin_start(bin), daily.at(bin), daily.coverage(bin));
  }
  const core::TakedownMetrics fed = forward.finish();
  EXPECT_TRUE(windows_equal(expected.wt30, fed.wt30));
  EXPECT_TRUE(windows_equal(expected.wt40, fed.wt40));
}

TEST(StreamEquivalence, WelfordMomentsMatchTwoPassWithinTolerance) {
  // A hostile case for naive sum-of-squares: large common offset, small
  // spread. Welford must agree with the two-pass reference despite both
  // losing ~7 digits to the offset, and welch_t_test (which reduces to
  // RunningStats internally) must equal welch_t_test_from_stats bit for
  // bit.
  std::vector<double> before;
  std::vector<double> after;
  for (int i = 0; i < 400; ++i) {
    before.push_back(1.0e9 + 0.25 * ((i * 31) % 17));
    after.push_back(1.0e9 - 3.0 + 0.25 * ((i * 53) % 19));
  }

  stats::RunningStats online;
  for (const double x : before) online.add(x);
  double mean = 0.0;
  for (const double x : before) mean += x;
  mean /= static_cast<double>(before.size());
  double m2 = 0.0;
  for (const double x : before) m2 += (x - mean) * (x - mean);
  const double variance = m2 / static_cast<double>(before.size() - 1);
  EXPECT_NEAR(online.mean(), mean, std::abs(mean) * 1e-12);
  // Both paths lose ~7 digits to the 1e9 offset; they must still agree to
  // a part in a million of the tiny true variance.
  EXPECT_NEAR(online.variance(), variance, variance * 1e-6);

  stats::RunningStats after_stats;
  for (const double x : after) after_stats.add(x);
  const stats::WelchResult span_result = stats::welch_t_test(before, after);
  const stats::WelchResult stats_result =
      stats::welch_t_test_from_stats(online, after_stats);
  EXPECT_EQ(span_result.t_statistic, stats_result.t_statistic);
  EXPECT_EQ(span_result.degrees_of_freedom, stats_result.degrees_of_freedom);
  EXPECT_EQ(span_result.p_value_greater, stats_result.p_value_greater);
  EXPECT_EQ(span_result.p_value_two_sided, stats_result.p_value_two_sided);
  EXPECT_EQ(span_result.mean_before, stats_result.mean_before);
  EXPECT_EQ(span_result.mean_after, stats_result.mean_after);
  EXPECT_TRUE(stats_result.t_statistic > 0.0);
}

TEST(StreamEquivalence, FlowBatcherRoundTripsRowsInOrder) {
  const auto& flows = reference_flows(flow::kVantageIxp);
  ASSERT_GT(flows.size(), 200u);

  flow::CollectingSink sink;
  flow::FlowBatcher batcher(sink, flow::kVantageTier1, 64);
  for (const auto& f : flows) batcher.push(f);
  EXPECT_EQ(batcher.delivered() + batcher.pending(), flows.size());
  batcher.flush();
  EXPECT_EQ(batcher.pending(), 0u);
  EXPECT_EQ(batcher.delivered(), flows.size());
  EXPECT_EQ(sink.flows(flow::kVantageTier1), flows);
  EXPECT_TRUE(sink.flows(flow::kVantageIxp).empty());

  // record() materialization must invert push_back exactly.
  flow::FlowBatch batch(8);
  batch.push_back(flows[0]);
  batch.push_back(flows[1]);
  const flow::FlowBatchView view = batch.view();
  EXPECT_EQ(view.record(0), flows[0]);
  EXPECT_EQ(view.record(1), flows[1]);
  EXPECT_FALSE(batch.full());
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.capacity(), 8u);
}

}  // namespace
}  // namespace booterscope
