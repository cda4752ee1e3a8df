#include "core/mitigation.hpp"

#include <gtest/gtest.h>

#include "sim/internet.hpp"
#include "sim/landscape.hpp"

namespace booterscope::core {
namespace {

using util::Duration;
using util::Timestamp;

flow::FlowRecord attack_flow(net::Ipv4Addr victim, Timestamp first,
                             double gbps_per_minute) {
  flow::FlowRecord f;
  f.src = net::Ipv4Addr{1, 1, 1, 1};
  f.dst = victim;
  f.src_port = net::ports::kNtp;
  f.dst_port = 4000;
  f.proto = net::IpProto::kUdp;
  f.bytes = static_cast<std::uint64_t>(gbps_per_minute * 1e9 / 8 * 60);
  f.packets = f.bytes / 490;
  f.first = first;
  f.last = first + Duration::seconds(59);
  return f;
}

TEST(Blackhole, TriggersAboveThresholdOnly) {
  const Timestamp t = Timestamp::parse("2018-11-01T10:00:00").value();
  flow::FlowList flows;
  flows.push_back(attack_flow(net::Ipv4Addr{9}, t, 10.0));  // above 5 Gbps
  flows.push_back(attack_flow(net::Ipv4Addr{10}, t, 1.0));  // below
  const auto entries = plan_blackholes(flows, BlackholePolicy{});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].victim, net::Ipv4Addr{9});
  EXPECT_EQ(entries[0].active_from, t + Duration::minutes(5));
  EXPECT_EQ(entries[0].active_until,
            t + Duration::minutes(5) + Duration::hours(2));
}

TEST(Blackhole, DoesNotRetriggerInsideHold) {
  const Timestamp t = Timestamp::parse("2018-11-01T10:00:00").value();
  flow::FlowList flows;
  // A 60-minute sustained attack: one announcement, not sixty.
  for (int minute = 0; minute < 60; ++minute) {
    flows.push_back(
        attack_flow(net::Ipv4Addr{9}, t + Duration::minutes(minute), 10.0));
  }
  const auto entries = plan_blackholes(flows, BlackholePolicy{});
  EXPECT_EQ(entries.size(), 1u);
}

TEST(Blackhole, RetriggersAfterHoldExpiresIfAttackPersists) {
  BlackholePolicy policy;
  policy.hold = Duration::minutes(30);
  const Timestamp t = Timestamp::parse("2018-11-01T10:00:00").value();
  flow::FlowList flows;
  for (int minute = 0; minute < 120; minute += 10) {
    flows.push_back(
        attack_flow(net::Ipv4Addr{9}, t + Duration::minutes(minute), 10.0));
  }
  const auto entries = plan_blackholes(flows, policy);
  EXPECT_GE(entries.size(), 2u);
}

TEST(Blackhole, ApplyDropsCoveredAttackTraffic) {
  const Timestamp t = Timestamp::parse("2018-11-01T10:00:00").value();
  flow::FlowList flows;
  for (int minute = 0; minute < 30; ++minute) {
    flows.push_back(
        attack_flow(net::Ipv4Addr{9}, t + Duration::minutes(minute), 10.0));
  }
  const auto entries = plan_blackholes(flows, BlackholePolicy{});
  flow::FlowList residual;
  const auto outcome = apply_blackholes(flows, entries, {}, &residual);
  EXPECT_EQ(outcome.announcements, 1u);
  EXPECT_EQ(outcome.victims, 1u);
  // Reaction delay is 5 minutes: the first ~5 minutes pass, the rest drop.
  EXPECT_GT(outcome.attack_gbit_dropped, outcome.attack_gbit_passed * 3);
  EXPECT_NEAR(outcome.drop_share(), 25.0 / 30.0, 0.05);
  EXPECT_EQ(residual.size(), flows.size() - 25);
  EXPECT_GT(outcome.victim_blackout_minutes, 100.0);
}

TEST(Blackhole, NonAttackFlowsToVictimAlsoDropped) {
  // Blackholing is indiscriminate: the victim's legitimate traffic dies too.
  const Timestamp t = Timestamp::parse("2018-11-01T10:00:00").value();
  flow::FlowList flows;
  flows.push_back(attack_flow(net::Ipv4Addr{9}, t, 10.0));
  flow::FlowRecord web;
  web.src = net::Ipv4Addr{8, 8, 8, 8};
  web.dst = net::Ipv4Addr{9};
  web.src_port = 443;
  web.dst_port = 50'000;
  web.proto = net::IpProto::kTcp;
  web.packets = 100;
  web.bytes = 100'000;
  web.first = t + Duration::minutes(10);
  web.last = web.first + Duration::seconds(5);
  flows.push_back(web);
  const auto entries = plan_blackholes(flows, BlackholePolicy{});
  flow::FlowList residual;
  (void)apply_blackholes(flows, entries, {}, &residual);
  for (const auto& f : residual) {
    EXPECT_FALSE(f.dst == net::Ipv4Addr{9} &&
                 f.first >= t + Duration::minutes(5));
  }
}

TEST(Remediation, ShrinksAttackOutputAfterRollout) {
  const sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.start = Timestamp::parse("2018-11-01").value();
  config.days = 40;
  config.takedown = std::nullopt;
  config.attacks_per_day = 80.0;
  config.remediation_start = Timestamp::parse("2018-11-15").value();
  config.remediation_per_day = 0.05;
  exec::ThreadPool pool(1);
  const auto result = sim::run_landscape(internet, config, pool);

  // Ground-truth attack output falls as reflectors get cleaned up.
  double early = 0.0;
  int early_count = 0;
  double late = 0.0;
  int late_count = 0;
  for (const auto& attack : result.attacks) {
    if (attack.start < *config.remediation_start) {
      early += attack.victim_gbps;
      ++early_count;
    } else if (attack.start >
               *config.remediation_start + Duration::days(15)) {
      late += attack.victim_gbps;
      ++late_count;
    }
  }
  ASSERT_GT(early_count, 100);
  ASSERT_GT(late_count, 100);
  const double early_mean = early / early_count;
  const double late_mean = late / late_count;
  EXPECT_LT(late_mean, early_mean * 0.6);
}

TEST(Remediation, DisabledByDefault) {
  const sim::LandscapeConfig config;
  EXPECT_FALSE(config.remediation_start.has_value());
}

}  // namespace
}  // namespace booterscope::core
