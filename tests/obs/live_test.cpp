// obs::live unit suite: Watchdog stall semantics under a synthetic clock
// and ResourceSampler ring/slope/tick behaviour. The watchdog never reads
// a clock, so every scenario here is a pure function of the timestamps fed
// to check() — no sleeps, no flakiness. Sampler tests that need real time
// (the background cadence) assert only lower bounds.
#include "obs/live/resource_sampler.hpp"
#include "obs/live/watchdog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace booterscope::obs::live {
namespace {

constexpr std::int64_t kSecond = 1'000'000'000;

Watchdog::Config tight_deadline() {
  Watchdog::Config config;
  config.stall_deadline_nanos = 2 * kSecond;
  return config;
}

TEST(Watchdog, HeartbeatStallOpensAndRecovers) {
  Watchdog watchdog(tight_deadline());
  std::atomic<std::int64_t>* beat = watchdog.register_heartbeat("pool", 0);
  ASSERT_NE(beat, nullptr);

  watchdog.check(1 * kSecond);  // within deadline
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 0u);

  watchdog.check(3 * kSecond);  // 3s since last beat > 2s deadline
  EXPECT_FALSE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 1u);
  std::vector<StallEvent> events = watchdog.stall_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].source, "heartbeat:pool");
  EXPECT_EQ(events[0].detected_nanos, 3 * kSecond);
  EXPECT_EQ(events[0].recovered_nanos, 0);  // still open

  beat->store(4 * kSecond);  // producer makes progress
  watchdog.check(5 * kSecond);
  EXPECT_TRUE(watchdog.healthy());
  events = watchdog.stall_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].recovered_nanos, 5 * kSecond);
  // Recovery closes the event; the detection count is cumulative.
  EXPECT_EQ(watchdog.stalls_detected(), 1u);
}

TEST(Watchdog, PoolStarvationOpensAfterDeadlineAndProgressRecovers) {
  Watchdog watchdog(tight_deadline());
  std::size_t queued = 5;
  std::size_t busy = 0;
  std::uint64_t tasks = 100;
  watchdog.watch_pool(Watchdog::PoolProbe{
      [&] { return queued; }, [&] { return busy; }, [&] { return tasks; }});

  watchdog.check(1 * kSecond);  // starts the starvation window at t=1s
  watchdog.check(2 * kSecond);
  EXPECT_TRUE(watchdog.healthy()) << "deadline not yet exceeded";
  watchdog.check(4 * kSecond);  // starved since 1s, 3s > 2s deadline
  EXPECT_FALSE(watchdog.healthy());
  std::vector<StallEvent> events = watchdog.stall_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].source, "pool");

  tasks = 101;  // the completion counter advances: progress
  watchdog.check(5 * kSecond);
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_EQ(watchdog.stall_events()[0].recovered_nanos, 5 * kSecond);
}

TEST(Watchdog, BusyWorkerOrEmptyQueueIsNotStarvation) {
  Watchdog watchdog(tight_deadline());
  std::size_t queued = 0;
  std::size_t busy = 0;
  const std::uint64_t tasks = 7;
  watchdog.watch_pool(Watchdog::PoolProbe{
      [&] { return queued; }, [&] { return busy; }, [&] { return tasks; }});

  watchdog.check(0);
  watchdog.check(10 * kSecond);  // empty queue: idle, not starved
  EXPECT_TRUE(watchdog.healthy());

  queued = 3;
  busy = 1;  // a worker is on it: the deadline window must not open
  watchdog.check(11 * kSecond);
  watchdog.check(30 * kSecond);
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 0u);
}

TEST(Watchdog, DisarmedWatchdogFlagsNothingAndReArmResumes) {
  Watchdog watchdog(tight_deadline());
  std::atomic<std::int64_t>* beat = watchdog.register_heartbeat("stage", 0);

  watchdog.disarm();  // the serve-hold window: silence is expected
  watchdog.check(100 * kSecond);
  EXPECT_TRUE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 0u);

  watchdog.arm();
  watchdog.check(101 * kSecond);  // still 101s since the seed beat
  EXPECT_FALSE(watchdog.healthy());

  beat->store(101 * kSecond);
  watchdog.check(102 * kSecond);
  EXPECT_TRUE(watchdog.healthy());
}

TEST(Watchdog, DisarmDuringOpenStallRecoversAndRearmCatchesTheNextStall) {
  // The booterscoped drain lifecycle: a live stall opens, the operator
  // (or the drain path) disarms — the open stall closes, /healthz goes
  // green — and a later re-arm detects a fresh stall which then recovers
  // on its own heartbeat. Two distinct, closed events must remain.
  Watchdog watchdog(tight_deadline());
  std::atomic<std::int64_t>* beat = watchdog.register_heartbeat("svc", 0);

  watchdog.check(5 * kSecond);  // 5s of silence against a 2s deadline
  EXPECT_FALSE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 1u);

  watchdog.disarm();  // drain: the worker goes quiet by design
  watchdog.check(6 * kSecond);
  EXPECT_TRUE(watchdog.healthy());

  watchdog.arm();
  watchdog.check(10 * kSecond);  // still no beat since t=0
  EXPECT_FALSE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 2u);

  beat->store(10 * kSecond);
  watchdog.check(11 * kSecond);
  EXPECT_TRUE(watchdog.healthy());

  const std::vector<StallEvent> events = watchdog.stall_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GT(events[0].recovered_nanos, 0);
  EXPECT_GT(events[1].recovered_nanos, 0);
}

TEST(Watchdog, StallIncrementsLabelledRegistryCounter) {
  MetricsRegistry registry;
  Watchdog watchdog(tight_deadline(), &registry);
  (void)watchdog.register_heartbeat("ingest", 0);
  watchdog.check(5 * kSecond);
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_EQ(registry.counter_total("booterscope_live_watchdog_stalls_total"),
            1u);
#endif
  EXPECT_EQ(watchdog.stalls_detected(), 1u);
}

TEST(Watchdog, ExportToTimelineEmitsDetectionAndRecoveryInstants) {
  Watchdog watchdog(tight_deadline());
  std::atomic<std::int64_t>* beat = watchdog.register_heartbeat("pool", 0);
  watchdog.check(3 * kSecond);
  beat->store(3 * kSecond);
  watchdog.check(4 * kSecond);

  StageTracer tracer;
  watchdog.export_to_timeline(tracer);
  const std::string json = tracer.chrome_trace_json(0);
  EXPECT_NE(json.find("\"name\":\"stall:heartbeat:pool\",\"cat\":\"instant\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("stall_recovered:heartbeat:pool"), std::string::npos)
      << json;
  EXPECT_TRUE(tracer.root().children.empty());
}

TEST(ResourceSampler, SampleNowFillsRingChronologically) {
  MetricsRegistry registry;
  registry.counter("booterscope_live_fixture_total").add(10);
  ResourceSampler::Config config;
  config.counter_names = {"booterscope_live_fixture_total"};
  ResourceSampler sampler(config, &registry);

  sampler.sample_now();
  registry.counter("booterscope_live_fixture_total").add(5);
  sampler.sample_now();

  const std::vector<ResourceSampler::Sample> samples = sampler.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_LE(samples[0].at_nanos, samples[1].at_nanos);
  ASSERT_EQ(samples[0].counter_values.size(), 1u);
  ASSERT_EQ(samples[1].counter_values.size(), 1u);
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_EQ(samples[0].counter_values[0], 10u);
  EXPECT_EQ(samples[1].counter_values[0], 15u);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(samples[0].rss_bytes, 0u);
  // Every tick refreshes the live gauges the scrape endpoint serves.
  EXPECT_GT(registry.gauge("booterscope_live_rss_bytes").value(), 0.0);
  EXPECT_EQ(registry.counter_total("booterscope_live_samples_total"), 2u);
#endif
#endif
  EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(ResourceSampler, RingDropsOldestAndSnapshotStaysChronological) {
  ResourceSampler::Config config;
  config.ring_capacity = 4;
  ResourceSampler sampler(config);
  for (int i = 0; i < 6; ++i) sampler.sample_now();

  EXPECT_EQ(sampler.dropped(), 2u);
  const std::vector<ResourceSampler::Sample> samples = sampler.snapshot();
  ASSERT_EQ(samples.size(), 4u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].at_nanos, samples[i].at_nanos);
  }
}

TEST(ResourceSampler, SlopeFitRecoversSyntheticLinearGrowth) {
  std::vector<ResourceSampler::Sample> samples;
  for (int i = 0; i < 10; ++i) {
    ResourceSampler::Sample sample;
    sample.at_nanos = i * kSecond;
    sample.rss_bytes = 1'000'000 + static_cast<std::uint64_t>(i) * 512;
    samples.push_back(sample);
  }
  const ResourceSampler::SlopeFit fit =
      ResourceSampler::fit_rss_slope(samples);
  EXPECT_EQ(fit.points, 10u);
  EXPECT_NEAR(fit.bytes_per_second, 512.0, 1e-6);

  // Degenerate inputs: fewer than two points, or all points at one instant.
  EXPECT_EQ(ResourceSampler::fit_rss_slope({}).bytes_per_second, 0.0);
  EXPECT_EQ(ResourceSampler::fit_rss_slope({samples[0]}).bytes_per_second,
            0.0);
  std::vector<ResourceSampler::Sample> coincident = {samples[0], samples[0]};
  EXPECT_EQ(ResourceSampler::fit_rss_slope(coincident).bytes_per_second, 0.0);
}

TEST(ResourceSampler, BackgroundThreadSamplesAtCadence) {
  ResourceSampler::Config config;
  config.interval_nanos = 1'000'000;  // clamp floor: 1 ms
  ResourceSampler sampler(config);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  // Busy-wait on the ring instead of sleeping a fixed time: the suite stays
  // fast on idle machines and tolerant on loaded CI boxes.
  const std::int64_t give_up = util::monotonic_nanos() + 5 * kSecond;
  while (sampler.snapshot().size() < 3 && util::monotonic_nanos() < give_up) {
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.snapshot().size(), 3u)
      << "background thread produced no ticks within 5s";
  sampler.stop();  // idempotent
}

TEST(ResourceSampler, TickDrivesAttachedWatchdogCheck) {
  Watchdog watchdog(tight_deadline());
  // Seed a heartbeat far enough in the past that the very next check — the
  // one sample_now() issues — must flag it.
  (void)watchdog.register_heartbeat("stage",
                                    util::monotonic_nanos() - 10 * kSecond);
  ResourceSampler sampler(ResourceSampler::Config{}, nullptr,
                          ResourceSampler::PoolProbe(), &watchdog);
  EXPECT_TRUE(watchdog.healthy());
  sampler.sample_now();
  EXPECT_FALSE(watchdog.healthy());
  EXPECT_EQ(watchdog.stalls_detected(), 1u);
}

TEST(ResourceSampler, ExportToTimelineEmitsOneTrackPerSeries) {
  MetricsRegistry registry;
  registry.counter("booterscope_live_fixture_total").inc();
  ResourceSampler::Config config;
  config.counter_names = {"booterscope_live_fixture_total"};
  ResourceSampler sampler(config, &registry);
  sampler.sample_now();
  sampler.sample_now();

  StageTracer tracer;
  sampler.export_to_timeline(tracer);
  const std::string json = tracer.chrome_trace_json(0);
  EXPECT_NE(json.find("booterscope_live_rss_bytes"), std::string::npos);
  EXPECT_NE(json.find("booterscope_live_cpu_seconds"), std::string::npos);
  EXPECT_NE(json.find("booterscope_live_pool_queue_depth"),
            std::string::npos);
  EXPECT_NE(json.find("booterscope_live_fixture_total"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Two samples x five series, all counter records on the driver lane.
  EXPECT_EQ(tracer.spans(0).size(), 10u);
}

}  // namespace
}  // namespace booterscope::obs::live
