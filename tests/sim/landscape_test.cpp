#include "sim/landscape.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/landscape_detail.hpp"
#include "sim/landscape_stream.hpp"

namespace booterscope::sim {
namespace {

using util::Duration;
using util::Timestamp;

/// Shrunk scenario for test speed: 90 days, takedown on day 48, enough for
/// the ±40-day windows of the analysis.
LandscapeConfig small_config() {
  LandscapeConfig config;
  config.start = Timestamp::parse("2018-11-01").value();
  config.days = 90;
  config.takedown = Timestamp::parse("2018-12-19").value();
  config.attacks_per_day = 80.0;
  config.victim_population = 5'000;
  return config;
}

class LandscapeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    internet_ = new Internet(InternetConfig{});
    pool_ = new exec::ThreadPool(4);
    const LandscapeConfig config = small_config();
    core::SeriesSpec ntp;
    ntp.port = net::ports::kNtp;
    ntp_ixp_ = new core::StreamAnalysis(config.start, config.days, {ntp});
    result_ = new LandscapeResult(
        run_landscape(*internet_, config, *pool_, nullptr, ntp_ixp_));
    ntp_ixp_->finish();
  }
  static void TearDownTestSuite() {
    delete result_;
    delete ntp_ixp_;
    delete pool_;
    delete internet_;
  }
  static Internet* internet_;
  static exec::ThreadPool* pool_;
  /// Daily NTP-to-reflector packets at the IXP, from the fixture's drain.
  static core::StreamAnalysis* ntp_ixp_;
  static LandscapeResult* result_;
};

Internet* LandscapeTest::internet_ = nullptr;
exec::ThreadPool* LandscapeTest::pool_ = nullptr;
core::StreamAnalysis* LandscapeTest::ntp_ixp_ = nullptr;
LandscapeResult* LandscapeTest::result_ = nullptr;

TEST_F(LandscapeTest, ProducesTrafficAtAllVantagePoints) {
  EXPECT_GT(result_->ixp.store.size(), 10'000u);
  EXPECT_GT(result_->tier1.store.size(), 10'000u);
  EXPECT_GT(result_->tier2.store.size(), 10'000u);
  EXPECT_GT(result_->attacks.size(), 4'000u);
}

TEST_F(LandscapeTest, FlowsAreWithinTheStudyWindow) {
  const Timestamp start = result_->config.start;
  const Timestamp end = start + Duration::days(result_->config.days);
  for (const auto& f : result_->ixp.store.flows()) {
    ASSERT_GE(f.first, start);
    ASSERT_LT(f.first, end);
  }
}

TEST_F(LandscapeTest, SamplingRatesAreStamped) {
  for (const auto& f : result_->ixp.store.flows()) {
    ASSERT_EQ(f.sampling_rate, result_->config.ixp_sampling);
  }
  ASSERT_FALSE(result_->tier2.store.empty());
  EXPECT_EQ(result_->tier2.store.flows().front().sampling_rate,
            result_->config.tier2_sampling);
}

TEST_F(LandscapeTest, GroundTruthAttacksAreWellFormed) {
  for (const auto& attack : result_->attacks) {
    ASSERT_GT(attack.victim_gbps, 0.0);
    ASSERT_GE(attack.reflector_count, 3u);
    ASSERT_LE(attack.reflector_count, 19'000u);
    ASSERT_GE(attack.duration.total_seconds(), 60);
    ASSERT_LE(attack.duration.total_seconds(), 3'600);
    ASSERT_LT(attack.booter_index, result_->market.size());
  }
}

TEST_F(LandscapeTest, NtpDominatesTheAttackMix) {
  std::size_t ntp = 0;
  for (const auto& attack : result_->attacks) {
    ntp += attack.vector == net::AmpVector::kNtp ? 1 : 0;
  }
  const double share =
      static_cast<double>(ntp) / static_cast<double>(result_->attacks.size());
  EXPECT_NEAR(share, result_->config.share_ntp, 0.03);
}

TEST_F(LandscapeTest, NoSeizedBooterAttacksAfterTakedownUnlessResurrected) {
  const Timestamp takedown = *result_->config.takedown;
  for (const auto& attack : result_->attacks) {
    if (attack.start <= takedown) continue;
    const BooterProfile& booter = result_->market[attack.booter_index];
    if (!booter.seized) continue;
    // Only booter A (resurrect_after = 3 days) may appear, and only after
    // its new domain went live.
    ASSERT_TRUE(booter.resurrect_after.has_value()) << booter.name;
    ASSERT_GE(attack.start, takedown + *booter.resurrect_after);
  }
}

TEST_F(LandscapeTest, DemandMigratesInsteadOfDisappearing) {
  // Daily attack counts before vs. after the takedown: no significant drop
  // (users move to surviving booters).
  const Timestamp takedown = *result_->config.takedown;
  stats::BinnedSeries daily(result_->config.start, Duration::days(1),
                            static_cast<std::size_t>(result_->config.days));
  for (const auto& attack : result_->attacks) daily.add(attack.start, 1.0);
  const auto metrics = core::takedown_metrics(daily, takedown);
  EXPECT_FALSE(metrics.wt30.significant);
  EXPECT_GT(metrics.wt30.reduction, 0.85);
}

TEST_F(LandscapeTest, TakedownCutsReflectorBoundNtpTraffic) {
  const Timestamp takedown = *result_->config.takedown;
  const auto metrics = core::takedown_metrics(ntp_ixp_->series(0), takedown);
  EXPECT_TRUE(metrics.wt30.significant);
  EXPECT_LT(metrics.wt30.reduction, 0.75);
  EXPECT_GT(metrics.wt30.reduction, 0.1);
}

TEST_F(LandscapeTest, VictimBoundTrafficUnaffectedAcrossSeeds) {
  // A size check, so it runs over seeds: "no significant reduction" on a
  // single seed fails for a correctly sized model about alpha of the time
  // per window. Per seed, P(wt30 or wt40 significant) <= 2 * alpha = 0.10,
  // so more than 4 of 12 seeds firing has probability <= 0.43% (the
  // Bin(12, 0.10) tail) for a model without a victim-bound effect.
  int significant_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    LandscapeConfig config = small_config();
    config.seed = seed;
    core::SeriesSpec victims;
    victims.kind = core::SeriesSpec::Kind::kFromReflectors;
    core::StreamAnalysis analysis(config.start, config.days, {victims});
    (void)run_landscape_stream(*internet_, config, *pool_, analysis);
    analysis.finish();
    const auto metrics =
        core::takedown_metrics(analysis.series(0), *config.takedown);
    if (metrics.wt30.significant || metrics.wt40.significant) {
      ++significant_seeds;
    }
  }
  EXPECT_LE(significant_seeds, 4);
}

TEST_F(LandscapeTest, NtpSourcePortTrafficIsBimodal) {
  // Flows with source port 123 are either amplified monlist replies
  // (486-490 bytes) or benign NTP responses (<200 bytes) — nothing in
  // between. This is the mechanism behind Fig. 2(a)'s bimodality.
  std::size_t attack_flows = 0;
  std::size_t benign_flows = 0;
  for (const auto& f : result_->ixp.store.flows()) {
    if (f.src_port != net::ports::kNtp || f.proto != net::IpProto::kUdp) {
      continue;
    }
    const double size = f.mean_packet_size();
    if (size > 200.0) {
      ASSERT_GE(size, 480.0);
      ASSERT_LE(size, 495.0);
      ++attack_flows;
    } else {
      ++benign_flows;
    }
  }
  EXPECT_GT(attack_flows, 1'000u);
  EXPECT_GT(benign_flows, 100u);
}

TEST_F(LandscapeTest, DeterministicForSameSeed) {
  exec::ThreadPool serial(1);
  const LandscapeResult again =
      run_landscape(*internet_, small_config(), serial);
  EXPECT_EQ(again.ixp.store.size(), result_->ixp.store.size());
  EXPECT_EQ(again.attacks.size(), result_->attacks.size());
  ASSERT_FALSE(again.ixp.store.empty());
  EXPECT_EQ(again.ixp.store.flows().front(), result_->ixp.store.flows().front());
  EXPECT_EQ(again.ixp.store.flows().back(), result_->ixp.store.flows().back());
}

TEST_F(LandscapeTest, SeedChangesOutput) {
  LandscapeConfig other = small_config();
  other.seed = 999;
  const LandscapeResult again = run_landscape(*internet_, other, *pool_);
  EXPECT_NE(again.ixp.store.size(), result_->ixp.store.size());
}

TEST(LandscapeWindows, VantageWindowsFilterExports) {
  Internet internet{InternetConfig{}};
  LandscapeConfig config;
  config.start = Timestamp::parse("2018-11-01").value();
  config.days = 40;
  config.takedown = std::nullopt;
  config.attacks_per_day = 40.0;
  config.tier1_window = LandscapeConfig::Window{
      Timestamp::parse("2018-11-10").value(),
      Timestamp::parse("2018-11-20").value()};
  exec::ThreadPool pool(4);
  const auto result = run_landscape(internet, config, pool);
  ASSERT_FALSE(result.tier1.store.empty());
  for (const auto& f : result.tier1.store.flows()) {
    ASSERT_GE(f.first, config.tier1_window->start);
    ASSERT_LT(f.first, config.tier1_window->end);
  }
  // The unwindowed vantages still cover the whole span.
  bool before_window = false;
  for (const auto& f : result.ixp.store.flows()) {
    before_window |= f.first < config.tier1_window->start;
  }
  EXPECT_TRUE(before_window);
}

// Stages opened on the workers inside a day shard nest under the driver's
// `day_shards`, each on its worker's lane, and self time subtracts only
// same-lane children. The driver opens `day_shards` around each submit,
// with one driver-lane `market` child (the forward market step) per day;
// a shard's own children are its three generation phases.
TEST(LandscapeStages, ShardStagesNestOnWorkersWithPerLaneSelfTime) {
  Internet internet{InternetConfig{}};
  LandscapeConfig config;
  config.start = Timestamp::parse("2018-11-01").value();
  config.days = 9;
  config.takedown = std::nullopt;
  config.attacks_per_day = 20.0;
  exec::ThreadPool pool(4);
  obs::StageTracer tracer;
  (void)run_landscape(internet, config, pool, &tracer);

  const obs::StageNode& root = tracer.root();
  ASSERT_EQ(root.children.size(), 1u);
  const obs::StageNode& stream = *root.children[0];
  ASSERT_EQ(stream.name, "landscape_stream");
  ASSERT_EQ(stream.children.size(), 2u);
  const obs::StageNode& shards = *stream.children[0];
  const obs::StageNode& drain = *stream.children[1];
  ASSERT_EQ(shards.name, "day_shards");
  ASSERT_EQ(drain.name, "drain");
  EXPECT_EQ(shards.worker, -1);
  EXPECT_EQ(shards.calls, 9u);
  EXPECT_GT(shards.wall_nanos, 0u);

  std::uint64_t shard_calls = 0;
  std::uint64_t market_nodes = 0;
  std::uint64_t driver_children_nanos = 0;
  for (const auto& child : shards.children) {
    if (child->name == "market") {
      ++market_nodes;
      EXPECT_EQ(child->worker, -1);
      EXPECT_EQ(child->calls, 9u);
      EXPECT_TRUE(child->children.empty());
      driver_children_nanos += child->wall_nanos;
      continue;
    }
    const obs::StageNode& shard = *child;
    EXPECT_EQ(shard.name, "day_shard");
    EXPECT_GE(shard.worker, 0);
    shard_calls += shard.calls;
    ASSERT_EQ(shard.children.size(), 3u);
    const char* const phases[] = {"attacks", "maintenance", "benign"};
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(shard.children[i]->name, phases[i]);
      EXPECT_EQ(shard.children[i]->worker, shard.worker);
      EXPECT_EQ(shard.children[i]->calls, shard.calls);
    }
  }
  EXPECT_EQ(market_nodes, 1u);
  EXPECT_EQ(shard_calls, 9u);
  // Only the driver-lane `market` child counts against `day_shards`.
  EXPECT_EQ(shards.self_nanos(), shards.wall_nanos - driver_children_nanos);

  ASSERT_EQ(drain.children.size(), 1u);
  EXPECT_EQ(drain.children[0]->name, "analysis");
  EXPECT_EQ(drain.children[0]->worker, -1);
  EXPECT_EQ(drain.calls, 9u);
  // One delivery per batch, one barrier per day.
  EXPECT_GE(drain.children[0]->calls, 9u + 9u);

  for (const auto& flat : tracer.flatten()) {
    EXPECT_LE(flat.node->self_nanos(), flat.node->wall_nanos)
        << flat.node->name;
  }
}

// The engine builds the market once and steps it a day at a time, so its
// churn work is linear in run length: (days - 1) churn days per list.
// Replaying the market per shard made it quadratic (ratio 190 / 45).
TEST(LandscapeWork, MarketWorkIsLinearInRunLength) {
  Internet internet{InternetConfig{}};
  exec::ThreadPool pool(2);
  const auto work_for = [&](int days) {
    LandscapeConfig config;
    config.start = Timestamp::parse("2018-11-01").value();
    config.days = days;
    config.takedown = std::nullopt;
    config.attacks_per_day = 5.0;
    return run_landscape(internet, config, pool).work;
  };
  const EngineWork ten = work_for(10);
  const EngineWork twenty = work_for(20);
  EXPECT_EQ(ten.market_builds, 1u);
  EXPECT_EQ(twenty.market_builds, 1u);
  ASSERT_GT(ten.churn_days, 0u);
  EXPECT_EQ(ten.churn_days % 9, 0u);
  EXPECT_EQ(twenty.churn_days * 9, ten.churn_days * 19);
}

/// The lists of every service of `market`, in service then vector order.
std::vector<std::vector<ReflectorId>> market_lists(
    const detail::MarketRuntime& market) {
  std::vector<std::vector<ReflectorId>> lists;
  for (const BooterService& service : market.services) {
    for (const net::AmpVector vector : service.profile().vectors) {
      lists.push_back(service.list(vector)->current());
    }
  }
  return lists;
}

/// For every day of a `days`-day window at `start`, the forward-pass market
/// equals a fresh build + advance_to(start) + advance_to(day) replay — the
/// lists and, through one more churn day on both, their Rng states.
void expect_cursor_matches_replay(const Internet& internet,
                                  const std::string& start, int days) {
  LandscapeConfig config;
  config.start = Timestamp::parse(start).value();
  config.days = days;
  const detail::ReflectorPools pools = detail::build_pools(config);
  const auto fresh = [&] {
    util::Rng rng(config.seed);
    util::Rng market_rng = rng.fork("market");
    return detail::build_market(internet, config, pools, market_rng);
  };
  detail::MarketCursor cursor(fresh(), config.start);
  for (int d = 0; d < days; ++d) {
    const Timestamp day = config.start + Duration::days(d);
    (void)cursor.advance_to(day);
    detail::MarketRuntime replay = fresh();
    for (BooterService& service : replay.services) {
      (void)service.advance_to(config.start);
      (void)service.advance_to(day);
    }
    ASSERT_EQ(market_lists(cursor.market()), market_lists(replay))
        << start << " day " << d;

    detail::MarketRuntime stepped = cursor.market();
    for (std::size_t i = 0; i < stepped.services.size(); ++i) {
      (void)stepped.services[i].advance_to(day + Duration::days(1));
      (void)replay.services[i].advance_to(day + Duration::days(1));
    }
    ASSERT_EQ(market_lists(stepped), market_lists(replay))
        << start << " day " << d << " + 1";
  }
}

// Booter B switches its whole list on 2018-06-13. A window opening before
// that resamples B's lists from the post-start state on every later day
// and never churns them there; the cursor must serve exactly that.
TEST(MarketCursor, MatchesFreshReplayAcrossBooterBListSwitch) {
  const Internet internet{InternetConfig{}};
  expect_cursor_matches_replay(internet, "2018-06-01", 30);
}

TEST(MarketCursor, MatchesFreshReplayAfterBooterBListSwitch) {
  const Internet internet{InternetConfig{}};
  expect_cursor_matches_replay(internet, "2018-11-01", 30);
}

TEST(LandscapePaperConfig, MatchesStudyParameters) {
  const LandscapeConfig config = paper_landscape_config();
  EXPECT_EQ(config.start.date_string(), "2018-09-30");
  EXPECT_EQ(config.days, 122);
  ASSERT_TRUE(config.takedown.has_value());
  EXPECT_EQ(config.takedown->date_string(), "2018-12-19");
  ASSERT_TRUE(config.tier1_window.has_value());
  EXPECT_EQ(config.tier1_window->start.date_string(), "2018-12-12");
  EXPECT_EQ(config.ixp_window->start.date_string(), "2018-10-27");
}

}  // namespace
}  // namespace booterscope::sim
