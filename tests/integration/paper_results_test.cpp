// The reproduction's guardrail: runs the full paper-scale scenario and
// asserts the study's headline findings hold. If a refactor or
// recalibration breaks the science, this test fails — not just a bench
// output drifting silently.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pktsize.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "core/victims.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"

namespace booterscope {
namespace {

/// The takedown series of the suite, built by the analysis that rides the
/// run's drain (series index = position here).
enum PaperSeries : std::size_t {
  kMemcachedIxp,
  kNtpTier2,
  kDnsTier2,
  kDnsIxp,
  kFromReflectorsIxp,
};

std::vector<core::SeriesSpec> paper_specs() {
  const auto to_port = [](std::size_t vantage, std::uint16_t port) {
    core::SeriesSpec spec;
    spec.name = "to_port";
    spec.vantage = vantage;
    spec.port = port;
    return spec;
  };
  core::SeriesSpec control;
  control.name = "from_reflectors";
  control.kind = core::SeriesSpec::Kind::kFromReflectors;
  return {to_port(flow::kVantageIxp, net::ports::kMemcached),
          to_port(flow::kVantageTier2, net::ports::kNtp),
          to_port(flow::kVantageTier2, net::ports::kDns),
          to_port(flow::kVantageIxp, net::ports::kDns), control};
}

class PaperResults : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    internet_ = new sim::Internet(sim::InternetConfig{});
    const sim::LandscapeConfig config = sim::paper_landscape_config();
    analysis_ = new core::StreamAnalysis(config.start, config.days,
                                         paper_specs());
    analysis_->enable_hourly_victims(flow::kVantageIxp, {});
    exec::ThreadPool pool(4);
    result_ = new sim::LandscapeResult(
        sim::run_landscape(*internet_, config, pool, nullptr, analysis_));
    analysis_->finish();
  }
  static void TearDownTestSuite() {
    delete result_;
    delete analysis_;
    delete internet_;
  }
  static core::TakedownMetrics metrics(PaperSeries series) {
    return core::takedown_metrics(analysis_->series(series),
                                  *result_->config.takedown);
  }
  static sim::Internet* internet_;
  static core::StreamAnalysis* analysis_;
  static sim::LandscapeResult* result_;
};

sim::Internet* PaperResults::internet_ = nullptr;
core::StreamAnalysis* PaperResults::analysis_ = nullptr;
sim::LandscapeResult* PaperResults::result_ = nullptr;

TEST_F(PaperResults, NtpPacketMixIsBimodalAroundThePaperSplit) {
  // Paper: 54% of NTP packets below 200 bytes at the IXP.
  const double below = core::share_below(result_->ixp.store.flows(), 200.0);
  EXPECT_GT(below, 0.40);
  EXPECT_LT(below, 0.65);
}

TEST_F(PaperResults, TakedownReducesReflectorBoundTraffic) {
  struct Expectation {
    PaperSeries series;
    double red30_max;  // reduction must be at least this strong
  };
  const Expectation expectations[] = {
      // Paper red30: mcache IXP 22.5%, NTP T2 39.68%, DNS T2 81.63%.
      {kMemcachedIxp, 0.45},
      {kNtpTier2, 0.60},
      {kDnsTier2, 0.92},
  };
  for (const auto& expectation : expectations) {
    const auto m = metrics(expectation.series);
    EXPECT_TRUE(m.wt30.significant) << expectation.series;
    EXPECT_TRUE(m.wt40.significant) << expectation.series;
    EXPECT_LT(m.wt30.reduction, expectation.red30_max) << expectation.series;
  }
}

TEST_F(PaperResults, DnsAtTheIxpShowsNoReduction) {
  const auto m = metrics(kDnsIxp);
  EXPECT_FALSE(m.wt30.significant);
  EXPECT_FALSE(m.wt40.significant);
}

TEST_F(PaperResults, VictimBoundTrafficShowsNoSignificantReduction) {
  // The paper's headline: seizing front-ends does not protect victims.
  const auto m = metrics(kFromReflectorsIxp);
  EXPECT_FALSE(m.wt30.significant);
  EXPECT_FALSE(m.wt40.significant);
  EXPECT_GT(m.wt30.reduction, 0.8);
}

TEST_F(PaperResults, AttackedSystemCountUnchanged) {
  const auto m = core::takedown_metrics(
      analysis_->hourly_victims().rebin(util::Duration::days(1)),
      *result_->config.takedown);
  EXPECT_FALSE(m.wt30.significant);
  EXPECT_FALSE(m.wt40.significant);
}

TEST_F(PaperResults, VictimPopulationShapeMatchesFig2) {
  core::VictimAggregator aggregator;
  for (const auto& f : result_->ixp.store.flows()) aggregator.add(f);
  // Thousands of destinations at our scale; heavy tail reaches >100 Gbps.
  EXPECT_GT(aggregator.destination_count(), 1'000u);
  double max_gbps = 0.0;
  std::uint32_t max_sources = 0;
  std::size_t above_1g = 0;
  const auto summaries = aggregator.summarize();
  for (const auto& summary : summaries) {
    max_gbps = std::max(max_gbps, summary.max_gbps_per_minute);
    max_sources = std::max(max_sources, summary.unique_sources);
    above_1g += summary.verdict.passes_rate ? 1u : 0u;
  }
  EXPECT_GT(max_gbps, 50.0);        // paper: up to 602 Gbps
  EXPECT_GT(max_sources, 1'000u);   // paper: up to ~8 500 amplifiers
  // Fig. 2(c): only a small fraction (0.09) exceeds 1 Gbps.
  const double share_above_1g =
      static_cast<double>(above_1g) / static_cast<double>(summaries.size());
  EXPECT_LT(share_above_1g, 0.2);
  EXPECT_GT(share_above_1g, 0.01);
}

TEST_F(PaperResults, ObservationWindowsAreHonored) {
  const auto& cfg = result_->config;
  for (const auto& f : result_->tier1.store.flows()) {
    ASSERT_GE(f.first, cfg.tier1_window->start);
    ASSERT_LT(f.first, cfg.tier1_window->end);
  }
}

}  // namespace
}  // namespace booterscope
