// The live plane's hard constraint (DESIGN.md §13): sampler, watchdog and
// scrape server are observers — a run produces byte-identical output with
// the whole plane on or off. This pins it end to end: the same landscape
// config executed plain and under an aggressively ticking live plane
// (1 ms sampler cadence, pool heartbeat + starvation probes, listener
// accepting on loopback) must agree on every flow, attack and honeypot
// sighting, and on the golden manifest bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/live/resource_sampler.hpp"
#include "obs/live/scrape_server.hpp"
#include "obs/live/watchdog.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "sim/landscape.hpp"
#include "exec/thread_pool.hpp"
#include "util/time.hpp"

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

[[nodiscard]] std::string manifest_bytes(const sim::LandscapeResult& result,
                                         const sim::LandscapeConfig& config) {
  obs::RunManifest manifest("live_determinism_test");
  manifest.set_experiment("live-on-off");
  manifest.set_seed(config.seed);
  manifest.add_accounting("ixp_flows", result.ixp.store.flows().size());
  manifest.add_accounting("tier1_flows", result.tier1.store.flows().size());
  manifest.add_accounting("tier2_flows", result.tier2.store.flows().size());
  manifest.add_accounting("attacks", result.attacks.size());
  manifest.add_accounting("honeypot_sightings", result.honeypot_log.size());
  return manifest.to_json(nullptr, nullptr);
}

TEST(LiveDeterminism, OutputBytesIdenticalWithLivePlaneOnOrOff) {
  const sim::LandscapeConfig config = tiny_config();

  // Plain run: no observers at all.
  exec::ThreadPool plain_pool(4);
  const auto plain = sim::run_landscape(shared_internet(), config, plain_pool);

  // Observed run: the full live plane, ticking as fast as it is allowed to.
  exec::ThreadPool pool(4);
  obs::live::Watchdog watchdog(obs::live::Watchdog::Config{}, &obs::metrics());
  watchdog.watch_pool(obs::live::Watchdog::PoolProbe{
      [&pool] { return pool.queue_depth(); },
      [&pool] { return pool.busy_workers(); },
      [&pool] { return pool.tasks_executed(); }});
  pool.attach_heartbeat(
      watchdog.register_heartbeat("pool", util::monotonic_nanos()));
  obs::live::ResourceSampler::Config sampler_config;
  sampler_config.interval_nanos = 1'000'000;  // the 1 ms clamp floor
  sampler_config.counter_names = {"booterscope_landscape_flows_total"};
  obs::live::ResourceSampler sampler(
      sampler_config, &obs::metrics(),
      obs::live::ResourceSampler::PoolProbe{
          [&pool] { return pool.queue_depth(); },
          [&pool] { return pool.busy_workers(); }},
      &watchdog);
  sampler.start();
  obs::live::ScrapeServer server(obs::live::ScrapeServer::Config{0, 16},
                                 &obs::metrics(), &watchdog);
  const bool serving = server.start();

  const auto observed = sim::run_landscape(shared_internet(), config, pool);

  sampler.sample_now();
  EXPECT_FALSE(sampler.snapshot().empty());
  if (serving) server.stop();
  sampler.stop();
  pool.attach_heartbeat(nullptr);

  // Observer-only: every output collection matches element for element.
  ASSERT_FALSE(plain.ixp.store.flows().empty());
  EXPECT_EQ(plain.ixp.store.flows(), observed.ixp.store.flows());
  EXPECT_EQ(plain.tier1.store.flows(), observed.tier1.store.flows());
  EXPECT_EQ(plain.tier2.store.flows(), observed.tier2.store.flows());
  ASSERT_EQ(plain.attacks.size(), observed.attacks.size());
  for (std::size_t i = 0; i < plain.attacks.size(); ++i) {
    EXPECT_EQ(plain.attacks[i].start, observed.attacks[i].start) << i;
    EXPECT_EQ(plain.attacks[i].victim, observed.attacks[i].victim) << i;
    EXPECT_EQ(plain.attacks[i].booter_index, observed.attacks[i].booter_index)
        << i;
  }
  EXPECT_EQ(plain.honeypot_log.size(), observed.honeypot_log.size());
  EXPECT_EQ(manifest_bytes(plain, config), manifest_bytes(observed, config));
}

}  // namespace
}  // namespace booterscope
