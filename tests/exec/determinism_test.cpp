// Determinism contract of the parallel pipeline (DESIGN.md §9): for a
// fixed seed, every pool size — including 1 — produces identical bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "flow/batch.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_stream.hpp"
#include "exec/thread_pool.hpp"

namespace booterscope {
namespace {

const sim::Internet& shared_internet() {
  static const sim::Internet internet{sim::InternetConfig{}};
  return internet;
}

sim::LandscapeConfig tiny_config() {
  sim::LandscapeConfig config;
  config.seed = 7;
  config.start = util::Timestamp::parse("2018-11-01").value();
  config.days = 10;
  config.takedown = util::Timestamp::parse("2018-11-07").value();
  config.attacks_per_day = 60.0;
  config.honeypots_per_vector = 50;
  config.ixp_window.reset();
  config.tier1_window.reset();
  config.tier2_window.reset();
  return config;
}

void expect_same_attacks(const std::vector<sim::AttackRecord>& a,
                         const std::vector<sim::AttackRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << i;
    EXPECT_EQ(a[i].victim, b[i].victim) << i;
    EXPECT_EQ(a[i].victim_as, b[i].victim_as) << i;
    EXPECT_EQ(a[i].booter_index, b[i].booter_index) << i;
    EXPECT_EQ(a[i].vector, b[i].vector) << i;
    EXPECT_EQ(a[i].victim_gbps, b[i].victim_gbps) << i;
    EXPECT_EQ(a[i].reflector_count, b[i].reflector_count) << i;
  }
}

void expect_same_honeypot_log(const std::vector<sim::HoneypotObservation>& a,
                              const std::vector<sim::HoneypotObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vector, b[i].vector) << i;
    EXPECT_EQ(a[i].honeypot, b[i].honeypot) << i;
    EXPECT_EQ(a[i].victim, b[i].victim) << i;
    EXPECT_EQ(a[i].start, b[i].start) << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << i;
    EXPECT_EQ(a[i].trigger_pps, b[i].trigger_pps) << i;
    EXPECT_EQ(a[i].truth_booter, b[i].truth_booter) << i;
  }
}

TEST(ParallelDeterminism, LandscapeIdenticalForPoolSizes128) {
  const sim::LandscapeConfig config = tiny_config();
  exec::ThreadPool pool1(1);
  exec::ThreadPool pool2(2);
  exec::ThreadPool pool8(8);
  const auto r1 = sim::run_landscape(shared_internet(), config, pool1);
  const auto r2 = sim::run_landscape(shared_internet(), config, pool2);
  const auto r8 = sim::run_landscape(shared_internet(), config, pool8);

  ASSERT_FALSE(r1.ixp.store.flows().empty());
  for (const auto* other : {&r2, &r8}) {
    EXPECT_EQ(r1.ixp.store.flows(), other->ixp.store.flows());
    EXPECT_EQ(r1.tier1.store.flows(), other->tier1.store.flows());
    EXPECT_EQ(r1.tier2.store.flows(), other->tier2.store.flows());
    EXPECT_EQ(r1.ixp.sampling_rate, other->ixp.sampling_rate);
    expect_same_attacks(r1.attacks, other->attacks);
    expect_same_honeypot_log(r1.honeypot_log, other->honeypot_log);
  }
}

/// What a streaming run delivered: the sink's rows and the ground truth.
struct Delivered : sim::GroundTruthSink {
  flow::CollectingSink flows;
  std::vector<sim::AttackRecord> attacks;
  std::vector<sim::HoneypotObservation> honeypot_log;

  void on_attacks(std::span<const sim::AttackRecord> batch) override {
    attacks.insert(attacks.end(), batch.begin(), batch.end());
  }
  void on_honeypot_log(
      std::span<const sim::HoneypotObservation> log) override {
    honeypot_log.insert(honeypot_log.end(), log.begin(), log.end());
  }
};

// The in-flight window trades memory for overlap, never bytes: every pool
// size x window (1, 2 and the 2x-pool default) delivers the same rows and
// ground truth in the same order.
TEST(ParallelDeterminism, StreamIdenticalForPoolSizesAndInflightWindows) {
  const sim::LandscapeConfig config = tiny_config();
  const auto run = [&](std::size_t threads, std::size_t inflight) {
    exec::ThreadPool pool(threads);
    sim::StreamOptions options;
    options.max_inflight_days = inflight;
    Delivered out;
    const sim::StreamSummary summary = sim::run_landscape_stream(
        shared_internet(), config, pool, out.flows, options, nullptr, &out);
    EXPECT_EQ(summary.work.market_builds, 1u);
    return out;
  };
  const Delivered reference = run(1, 1);
  ASSERT_FALSE(reference.flows.flows(flow::kVantageIxp).empty());
  ASSERT_FALSE(reference.honeypot_log.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t inflight : {1u, 2u, 0u}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " inflight " +
                   std::to_string(inflight));
      const Delivered other = run(threads, inflight);
      for (std::size_t v = 0; v < flow::kVantageCount; ++v) {
        EXPECT_EQ(reference.flows.flows(v), other.flows.flows(v)) << v;
      }
      expect_same_attacks(reference.attacks, other.attacks);
      expect_same_honeypot_log(reference.honeypot_log, other.honeypot_log);
    }
  }
}

TEST(ParallelDeterminism, GoldenManifestBytesIdenticalAcrossPoolSizes) {
  // The manifest built from the *result* (not wall-clock or worker data)
  // must be byte-identical for every pool size.
  const sim::LandscapeConfig config = tiny_config();
  const auto manifest_for = [&](std::size_t threads) {
    exec::ThreadPool pool(threads);
    const auto result = sim::run_landscape(shared_internet(), config, pool);
    obs::RunManifest manifest("determinism_test");
    manifest.set_experiment("golden");
    manifest.set_seed(config.seed);
    manifest.add_config("days", static_cast<std::uint64_t>(config.days));
    manifest.add_config("attacks_per_day", config.attacks_per_day);
    manifest.add_accounting("ixp_flows", result.ixp.store.flows().size());
    manifest.add_accounting("tier1_flows", result.tier1.store.flows().size());
    manifest.add_accounting("tier2_flows", result.tier2.store.flows().size());
    manifest.add_accounting("attacks", result.attacks.size());
    manifest.add_accounting("honeypot_sightings", result.honeypot_log.size());
    manifest.add_conservation(
        "vantage_flows",
        result.ixp.store.flows().size() + result.tier1.store.flows().size() +
            result.tier2.store.flows().size(),
        result.ixp.store.flows().size() + result.tier1.store.flows().size() +
            result.tier2.store.flows().size());
    return manifest.to_json(nullptr, nullptr);
  };
  const std::string golden = manifest_for(1);
  EXPECT_EQ(golden, manifest_for(4));
  EXPECT_EQ(golden, manifest_for(0));  // 0 = hardware concurrency
  EXPECT_NE(golden.find("\"balanced\":true"), std::string::npos);
}

}  // namespace
}  // namespace booterscope
