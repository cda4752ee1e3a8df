// The reproduction's guardrail: runs the full paper-scale scenario and
// asserts the study's headline findings hold. If a refactor or
// recalibration breaks the science, this test fails — not just a bench
// output drifting silently.
#include <gtest/gtest.h>

#include "core/pktsize.hpp"
#include "core/takedown.hpp"
#include "core/victims.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"

namespace booterscope {
namespace {

class PaperResults : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    internet_ = new sim::Internet(sim::InternetConfig{});
    exec::ThreadPool pool(4);
    result_ = new sim::LandscapeResult(
        sim::run_landscape(*internet_, sim::paper_landscape_config(), pool));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete internet_;
  }
  static sim::Internet* internet_;
  static sim::LandscapeResult* result_;
};

sim::Internet* PaperResults::internet_ = nullptr;
sim::LandscapeResult* PaperResults::result_ = nullptr;

TEST_F(PaperResults, NtpPacketMixIsBimodalAroundThePaperSplit) {
  // Paper: 54% of NTP packets below 200 bytes at the IXP.
  const double below = core::share_below(result_->ixp.store.flows(), 200.0);
  EXPECT_GT(below, 0.40);
  EXPECT_LT(below, 0.65);
}

TEST_F(PaperResults, TakedownReducesReflectorBoundTraffic) {
  const auto& cfg = result_->config;
  struct Expectation {
    const flow::FlowList* flows;
    std::uint16_t port;
    double red30_max;  // reduction must be at least this strong
  };
  const Expectation expectations[] = {
      // Paper red30: mcache IXP 22.5%, NTP T2 39.68%, DNS T2 81.63%.
      {&result_->ixp.store.flows(), net::ports::kMemcached, 0.45},
      {&result_->tier2.store.flows(), net::ports::kNtp, 0.60},
      {&result_->tier2.store.flows(), net::ports::kDns, 0.92},
  };
  for (const auto& expectation : expectations) {
    const auto metrics = core::takedown_metrics(
        core::daily_packets_to_port(*expectation.flows, expectation.port,
                                    cfg.start, cfg.days),
        *cfg.takedown);
    EXPECT_TRUE(metrics.wt30.significant) << expectation.port;
    EXPECT_TRUE(metrics.wt40.significant) << expectation.port;
    EXPECT_LT(metrics.wt30.reduction, expectation.red30_max)
        << expectation.port;
  }
}

TEST_F(PaperResults, DnsAtTheIxpShowsNoReduction) {
  const auto& cfg = result_->config;
  const auto metrics = core::takedown_metrics(
      core::daily_packets_to_port(result_->ixp.store.flows(), net::ports::kDns,
                                  cfg.start, cfg.days),
      *cfg.takedown);
  EXPECT_FALSE(metrics.wt30.significant);
  EXPECT_FALSE(metrics.wt40.significant);
}

TEST_F(PaperResults, VictimBoundTrafficShowsNoSignificantReduction) {
  // The paper's headline: seizing front-ends does not protect victims.
  const auto& cfg = result_->config;
  const auto metrics = core::takedown_metrics(
      core::daily_packets_from_reflectors(result_->ixp.store.flows(), {},
                                          cfg.start, cfg.days),
      *cfg.takedown);
  EXPECT_FALSE(metrics.wt30.significant);
  EXPECT_FALSE(metrics.wt40.significant);
  EXPECT_GT(metrics.wt30.reduction, 0.8);
}

TEST_F(PaperResults, AttackedSystemCountUnchanged) {
  const auto& cfg = result_->config;
  const auto hourly = core::hourly_attacked_systems(
      result_->ixp.store.flows(), {}, cfg.start, cfg.days);
  const auto metrics = core::takedown_metrics_rebinned(hourly, *cfg.takedown);
  EXPECT_FALSE(metrics.wt30.significant);
  EXPECT_FALSE(metrics.wt40.significant);
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
