#include "core/takedown.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/stream_analysis.hpp"
#include "flow/batch.hpp"
#include "util/rng.hpp"

namespace booterscope::core {
namespace {

using util::Duration;
using util::Timestamp;

flow::FlowRecord flow_to_port(std::uint16_t dst_port, Timestamp t,
                              std::uint64_t packets, std::uint32_t sampling = 1) {
  flow::FlowRecord f;
  f.src = net::Ipv4Addr{1, 2, 3, 4};
  f.dst = net::Ipv4Addr{5, 6, 7, 8};
  f.src_port = 40'000;
  f.dst_port = dst_port;
  f.proto = net::IpProto::kUdp;
  f.packets = packets;
  f.bytes = packets * 60;
  f.first = t;
  f.last = t + Duration::seconds(30);
  f.sampling_rate = sampling;
  return f;
}

/// Feeds `flows` to `analysis` at the IXP slot through a FlowBatcher, the
/// way a producer drains, in batches small enough that rows straddle batch
/// boundaries, then finishes the pass.
void stream(StreamAnalysis& analysis, const flow::FlowList& flows) {
  flow::FlowBatcher batcher(analysis, flow::kVantageIxp, 2);
  for (const flow::FlowRecord& f : flows) batcher.push(f);
  batcher.flush();
  analysis.finish();
}

TEST(DailySeries, SumsScaledPacketsPerDay) {
  const Timestamp start = Timestamp::parse("2018-12-01").value();
  flow::FlowList flows;
  flows.push_back(flow_to_port(net::ports::kNtp, start, 10, 100));
  flows.push_back(
      flow_to_port(net::ports::kNtp, start + Duration::hours(20), 5, 100));
  flows.push_back(
      flow_to_port(net::ports::kNtp, start + Duration::days(2), 7, 100));
  flows.push_back(flow_to_port(net::ports::kDns, start, 99));  // other port
  SeriesSpec ntp;
  ntp.port = net::ports::kNtp;
  StreamAnalysis analysis(start, 5, {ntp});
  stream(analysis, flows);
  const auto& series = analysis.series(0);
  EXPECT_DOUBLE_EQ(series.at(0), 1500.0);
  EXPECT_DOUBLE_EQ(series.at(1), 0.0);
  EXPECT_DOUBLE_EQ(series.at(2), 700.0);
}

TEST(DailySeries, FromReflectorsUsesOptimisticFilter) {
  const Timestamp start = Timestamp::parse("2018-12-01").value();
  flow::FlowList flows;
  flow::FlowRecord attack;
  attack.src = net::Ipv4Addr{1};
  attack.dst = net::Ipv4Addr{2};
  attack.src_port = net::ports::kNtp;
  attack.proto = net::IpProto::kUdp;
  attack.packets = 100;
  attack.bytes = 100 * 490;
  attack.first = start;
  attack.last = start;
  flows.push_back(attack);
  flow::FlowRecord small = attack;
  small.bytes = 100 * 90;  // benign-sized
  flows.push_back(small);
  SeriesSpec victims;
  victims.kind = SeriesSpec::Kind::kFromReflectors;
  StreamAnalysis analysis(start, 2, {victims});
  stream(analysis, flows);
  EXPECT_DOUBLE_EQ(analysis.series(0).at(0), 100.0);  // only the large flow
}

TEST(TakedownMetrics, DetectsInjectedStepChange) {
  // Synthetic series: N(1000, 30) before, N(400, 30) after day 60.
  util::Rng rng(42);
  const Timestamp start = Timestamp::parse("2018-10-01").value();
  stats::BinnedSeries daily(start, Duration::days(1), 120);
  const Timestamp event = start + Duration::days(60);
  for (std::size_t d = 0; d < 120; ++d) {
    const double mean = d < 60 ? 1000.0 : 400.0;
    daily.set(d, util::normal(rng, mean, 30.0));
  }
  const auto metrics = takedown_metrics(daily, event);
  EXPECT_TRUE(metrics.wt30.significant);
  EXPECT_TRUE(metrics.wt40.significant);
  EXPECT_NEAR(metrics.wt30.reduction, 0.4, 0.03);
  EXPECT_NEAR(metrics.wt40.reduction, 0.4, 0.03);
  EXPECT_EQ(metrics.wt30.window_days, 30);
  EXPECT_EQ(metrics.wt40.window_days, 40);
}

TEST(TakedownMetrics, NoFalsePositiveOnFlatSeries) {
  util::Rng rng(43);
  const Timestamp start = Timestamp::parse("2018-10-01").value();
  stats::BinnedSeries daily(start, Duration::days(1), 120);
  for (std::size_t d = 0; d < 120; ++d) {
    daily.set(d, util::normal(rng, 1000.0, 50.0));
  }
  const auto metrics = takedown_metrics(daily, start + Duration::days(60));
  EXPECT_FALSE(metrics.wt30.significant);
  EXPECT_FALSE(metrics.wt40.significant);
  EXPECT_NEAR(metrics.wt30.reduction, 1.0, 0.05);
}

TEST(TakedownMetrics, RebinnedFromHourly) {
  util::Rng rng(44);
  const Timestamp start = Timestamp::parse("2018-10-01").value();
  stats::BinnedSeries hourly(start, Duration::hours(1), 120 * 24);
  const Timestamp event = start + Duration::days(60);
  for (std::size_t h = 0; h < hourly.bin_count(); ++h) {
    const bool before = h < 60u * 24u;
    hourly.set(h, util::normal(rng, before ? 50.0 : 20.0, 5.0));
  }
  const auto metrics = takedown_metrics(hourly.rebin(Duration::days(1)), event);
  EXPECT_TRUE(metrics.wt30.significant);
  EXPECT_NEAR(metrics.wt30.reduction, 0.4, 0.03);
}

TEST(TakedownMetrics, GapAwareVerdictSurvivesOutages) {
  util::Rng rng(45);
  const Timestamp start = Timestamp::parse("2018-10-01").value();
  const Timestamp event = start + Duration::days(60);
  stats::BinnedSeries daily(start, Duration::days(1), 120);
  for (std::size_t d = 0; d < 120; ++d) {
    const bool before = d < 60;
    daily.set(d, util::normal(rng, before ? 1000.0 : 600.0, 40.0));
  }
  const auto clean = takedown_metrics(daily, event);
  ASSERT_TRUE(clean.wt30.significant);
  EXPECT_EQ(clean.wt30.excluded_days, 0);
  EXPECT_EQ(clean.wt30.effective_before_days, 30);
  EXPECT_EQ(clean.wt30.effective_after_days, 30);

  // Vantage outage: five dark days inside the wt30 window read as zero
  // traffic but carry zero coverage.
  stats::BinnedSeries outaged = daily;
  for (const std::size_t d : {35u, 45u, 55u, 65u, 75u}) {
    outaged.set(d, 0.0);
    outaged.set_coverage(d, 0.0);
  }

  // Naive analysis keeps the dark days (and counts their zeros).
  const auto naive = takedown_metrics(outaged, event, 0.05, 0.0);
  EXPECT_EQ(naive.wt30.excluded_days, 0);

  // Gap-aware analysis excludes them and reproduces the clean verdict.
  const auto aware = takedown_metrics(outaged, event);
  EXPECT_EQ(aware.wt30.significant, clean.wt30.significant);
  EXPECT_EQ(aware.wt40.significant, clean.wt40.significant);
  EXPECT_NEAR(aware.wt30.reduction, clean.wt30.reduction, 0.02);
  EXPECT_EQ(aware.wt30.excluded_days, 5);
  EXPECT_EQ(aware.wt30.effective_before_days, 27);
  EXPECT_EQ(aware.wt30.effective_after_days, 28);
}

TEST(HourlyAttackedSystems, CountsConservativeVictimsPerHour) {
  const Timestamp start = Timestamp::parse("2018-12-01").value();
  flow::FlowList flows;
  // One strong attack (passes both rules) in hour 0 against victim 50:
  // 12 sources, ~2 Gbps each minute for 3 minutes.
  const std::uint64_t per_source_packets = 2'000'000'000ULL / 8 / 490 * 60 / 12;
  for (std::uint32_t s = 0; s < 12; ++s) {
    for (int minute = 0; minute < 3; ++minute) {
      flow::FlowRecord f;
      f.src = net::Ipv4Addr{100 + s};
      f.dst = net::Ipv4Addr{50};
      f.src_port = net::ports::kNtp;
      f.dst_port = 7777;
      f.proto = net::IpProto::kUdp;
      f.packets = per_source_packets;
      f.bytes = f.packets * 490;
      f.first = start + Duration::minutes(minute);
      f.last = f.first + Duration::seconds(59);
      flows.push_back(f);
    }
  }
  // A weak attack in hour 5 (fails the conservative filter).
  flow::FlowRecord weak;
  weak.src = net::Ipv4Addr{200};
  weak.dst = net::Ipv4Addr{51};
  weak.src_port = net::ports::kNtp;
  weak.dst_port = 7777;
  weak.proto = net::IpProto::kUdp;
  weak.packets = 100;
  weak.bytes = 100 * 490;
  weak.first = start + Duration::hours(5);
  weak.last = weak.first + Duration::seconds(30);
  flows.push_back(weak);

  StreamAnalysis analysis(start, 1, {});
  analysis.enable_hourly_victims(flow::kVantageIxp, {});
  stream(analysis, flows);
  const auto& series = analysis.hourly_victims();
  EXPECT_DOUBLE_EQ(series.at(0), 1.0);
  EXPECT_DOUBLE_EQ(series.at(5), 0.0);
  double total = 0.0;
  for (const double v : series.values()) total += v;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

}  // namespace
}  // namespace booterscope::core
