// Golden suite for the benchdiff engine (tools/benchdiff/diff.hpp): every
// gate class — structural, exact, timing — proven to fire on a synthetic
// regression and to stay quiet on legitimate variation (thread counts,
// sub-noise-floor timings). Links the diff library directly so a failure
// points at the gate logic, not at process plumbing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "diff.hpp"
#include "json_mini.hpp"

namespace booterscope::benchdiff {
namespace {

struct FixtureSpec {
  std::string experiment = "fig4";
  std::string days = "12";
  std::string threads = "4";
  std::uint64_t seed = 2018;
  double wall = 10.0;
  std::uint64_t items = 50000;
  double shard_stage = 8.0;
  std::uint64_t rss = 400'000'000;
};

[[nodiscard]] std::string ledger_json(const FixtureSpec& spec) {
  char buffer[1024];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"schema\":\"booterscope-bench-ledger/1\",\"bench\":\"bench\","
      "\"experiment\":\"%s\",\"git_describe\":\"unknown\",\"seed\":%llu,"
      "\"config\":{\"threads\":\"%s\",\"days\":\"%s\","
      "\"fault_profile\":\"none\"},"
      "\"wall_seconds\":%g,\"items\":%llu,\"items_per_second\":%g,"
      "\"stages\":[{\"name\":\"landscape_parallel\",\"depth\":0,"
      "\"total_seconds\":%g,\"self_seconds\":0.5,\"calls\":1,"
      "\"items_in\":0,\"items_out\":0,\"bytes\":0}],"
      "\"pool\":{\"workers\":4,\"tasks\":64,\"steals\":2,"
      "\"busy_seconds\":[1,1,1,1],\"busy_seconds_total\":4,"
      "\"utilization\":0.5},\"peak_rss_bytes\":%llu}",
      spec.experiment.c_str(),
      static_cast<unsigned long long>(spec.seed), spec.threads.c_str(),
      spec.days.c_str(), spec.wall,
      static_cast<unsigned long long>(spec.items),
      static_cast<double>(spec.items) / spec.wall, spec.shard_stage,
      static_cast<unsigned long long>(spec.rss));
  return buffer;
}

[[nodiscard]] Ledger parse_fixture(const FixtureSpec& spec) {
  std::string error;
  const std::optional<Ledger> ledger = parse_ledger(ledger_json(spec), &error);
  EXPECT_TRUE(ledger) << error;
  return *ledger;
}

/// A schema /2 resource_series block. `samples` is the *declared* count —
/// pass one that disagrees with the 3-element arrays to provoke the
/// check_ledger consistency finding.
[[nodiscard]] std::string series_block(double slope,
                                       std::uint64_t samples = 3,
                                       const std::string& t = "[0,1,2]") {
  char buffer[320];
  std::snprintf(buffer, sizeof buffer,
                "\"resource_series\":{\"interval_seconds\":0.025,"
                "\"samples\":%llu,\"dropped\":0,\"t_seconds\":%s,"
                "\"rss_bytes\":[1000,2000,3000],"
                "\"cpu_seconds\":[0.1,0.2,0.3],"
                "\"rss_slope_bytes_per_second\":%g}",
                static_cast<unsigned long long>(samples), t.c_str(), slope);
  return buffer;
}

/// Upgrades a v1 fixture document to schema /2: optionally nulls the RSS
/// (the getrusage-failed encoding) and splices in a resource_series block.
[[nodiscard]] std::string ledger_json_v2(const FixtureSpec& spec,
                                         bool null_rss,
                                         const std::string& series = "") {
  std::string json = ledger_json(spec);
  json.replace(json.find("ledger/1"), 8, "ledger/2");
  if (null_rss) {
    const std::size_t at = json.find("\"peak_rss_bytes\":");
    json = json.substr(0, at) + "\"peak_rss_bytes\":null}";
  }
  if (!series.empty()) {
    json.insert(json.find("\"peak_rss_bytes\""), series + ",");
  }
  return json;
}

[[nodiscard]] Ledger parse_fixture_v2(const FixtureSpec& spec, bool null_rss,
                                      const std::string& series = "") {
  std::string error;
  const std::optional<Ledger> ledger =
      parse_ledger(ledger_json_v2(spec, null_rss, series), &error);
  EXPECT_TRUE(ledger) << error;
  return *ledger;
}

/// A schema-/3 hw_counters block measured on the hardware tier. The derived
/// ratios are computed in the same double arithmetic the emitter uses and
/// printed at %.17g (round-trip exact), so check_ledger's identity
/// re-derivation accepts the fixture bit-for-bit.
[[nodiscard]] std::string hw_block(std::uint64_t cycles,
                                   std::uint64_t instructions,
                                   std::uint64_t cache_references,
                                   std::uint64_t cache_misses) {
  const double ipc =
      static_cast<double>(instructions) / static_cast<double>(cycles);
  const double rate = static_cast<double>(cache_misses) /
                      static_cast<double>(cache_references);
  char buffer[768];
  std::snprintf(
      buffer, sizeof buffer,
      "\"hw_counters\":{\"source\":\"hardware\",\"lanes_failed\":0,"
      "\"dropped_events\":0,"
      "\"stages\":[{\"path\":\"landscape_parallel\",\"lane\":0,"
      "\"sections\":1,\"cycles\":%llu,\"instructions\":%llu,\"ipc\":%.17g,"
      "\"task_clock_seconds\":1.25}],"
      "\"total\":{\"cycles\":%llu,\"instructions\":%llu,\"ipc\":%.17g,"
      "\"cache_references\":%llu,\"cache_misses\":%llu,"
      "\"cache_miss_rate\":%.17g,\"task_clock_seconds\":1.5}}",
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(instructions), ipc,
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(instructions), ipc,
      static_cast<unsigned long long>(cache_references),
      static_cast<unsigned long long>(cache_misses), rate);
  return buffer;
}

/// Upgrades a v1 fixture document to schema /3, splicing in an optional
/// hw_counters block (pass "" for a /3 ledger without one).
[[nodiscard]] std::string ledger_json_v3(const FixtureSpec& spec,
                                         const std::string& hw) {
  std::string json = ledger_json(spec);
  json.replace(json.find("ledger/1"), 8, "ledger/3");
  if (!hw.empty()) {
    json.insert(json.find("\"peak_rss_bytes\""), hw + ",");
  }
  return json;
}

[[nodiscard]] Ledger parse_fixture_v3(const FixtureSpec& spec,
                                      const std::string& hw) {
  std::string error;
  const std::optional<Ledger> ledger =
      parse_ledger(ledger_json_v3(spec, hw), &error);
  EXPECT_TRUE(ledger) << error;
  return *ledger;
}

TEST(BenchdiffParse, RoundTripsEveryLedgerField) {
  FixtureSpec spec;
  const Ledger ledger = parse_fixture(spec);
  EXPECT_EQ(ledger.experiment, "fig4");
  EXPECT_EQ(ledger.seed, 2018u);
  EXPECT_EQ(ledger.config_value("days"), "12");
  EXPECT_DOUBLE_EQ(ledger.wall_seconds, 10.0);
  EXPECT_EQ(ledger.items, 50000u);
  ASSERT_EQ(ledger.stages.size(), 1u);
  EXPECT_EQ(ledger.stages[0].name, "landscape_parallel");
  EXPECT_DOUBLE_EQ(ledger.stages[0].total_seconds, 8.0);
  EXPECT_EQ(ledger.pool_workers, 4u);
  EXPECT_EQ(ledger.peak_rss_bytes, 400'000'000u);
}

TEST(BenchdiffParse, SchemaTwoParsesNullRssAndResourceSeries) {
  const Ledger ledger = parse_fixture_v2({}, true, series_block(512.0));
  EXPECT_FALSE(ledger.peak_rss_bytes.has_value())
      << "serialized null must not read back as a number";
  ASSERT_TRUE(ledger.resource_series.has_value());
  EXPECT_EQ(ledger.resource_series->samples, 3u);
  EXPECT_EQ(ledger.resource_series->dropped, 0u);
  EXPECT_EQ(ledger.resource_series->t_seconds.size(), 3u);
  EXPECT_EQ(ledger.resource_series->rss_bytes.size(), 3u);
  EXPECT_EQ(ledger.resource_series->cpu_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(ledger.resource_series->rss_slope_bytes_per_second, 512.0);
  EXPECT_DOUBLE_EQ(ledger.resource_series->interval_seconds, 0.025);

  // A /2 ledger without the optional extras parses like a /1 one.
  const Ledger plain = parse_fixture_v2({}, false);
  EXPECT_EQ(plain.peak_rss_bytes, 400'000'000u);
  EXPECT_FALSE(plain.resource_series.has_value());
}

TEST(BenchdiffParse, SchemaThreeParsesHwCountersAndProfUnavailable) {
  const Ledger measured = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  ASSERT_TRUE(measured.hw_counters.has_value());
  EXPECT_TRUE(measured.hw_counters->available());
  EXPECT_EQ(measured.hw_counters->source, "hardware");
  EXPECT_EQ(measured.hw_counters->total.cycles, 10'000'000'000ull);
  EXPECT_EQ(measured.hw_counters->total.instructions, 20'000'000'000ull);
  ASSERT_TRUE(measured.hw_counters->total.ipc.has_value());
  EXPECT_DOUBLE_EQ(*measured.hw_counters->total.ipc, 2.0);
  ASSERT_TRUE(measured.hw_counters->total.cache_miss_rate.has_value());
  EXPECT_DOUBLE_EQ(*measured.hw_counters->total.cache_miss_rate, 0.05);
  ASSERT_EQ(measured.hw_counters->stages.size(), 1u);
  EXPECT_EQ(measured.hw_counters->stages[0].path, "landscape_parallel");
  EXPECT_EQ(measured.hw_counters->stages[0].lane, 0);
  // Keys the tier never measured stay disengaged, not defaulted to 0.
  EXPECT_FALSE(measured.hw_counters->stages[0].v.cache_misses.has_value());

  const Ledger refused = parse_fixture_v3(
      {},
      "\"hw_counters\":{\"prof_unavailable\":\"perf_event_open unavailable: "
      "hardware tier, cycles: EACCES (Permission denied)\"}");
  ASSERT_TRUE(refused.hw_counters.has_value());
  EXPECT_FALSE(refused.hw_counters->available());
  EXPECT_NE(refused.hw_counters->prof_unavailable.find("EACCES"),
            std::string::npos);

  // A /3 ledger that never ran --prof simply has no block.
  const Ledger plain = parse_fixture_v3({}, "");
  EXPECT_FALSE(plain.hw_counters.has_value());
}

TEST(BenchdiffParse, RejectsMalformedJsonAndWrongSchema) {
  std::string error;
  EXPECT_FALSE(parse_ledger("{\"schema\":", &error));
  EXPECT_NE(error.find("invalid JSON"), std::string::npos);
  error.clear();
  EXPECT_FALSE(parse_ledger("{\"schema\":\"other/9\"}", &error));
  EXPECT_NE(error.find("unsupported schema"), std::string::npos);
}

TEST(BenchdiffGate, IdenticalLedgersPass) {
  const Ledger base = parse_fixture({});
  const DiffResult result = diff_ledgers(base, base, DiffOptions{});
  EXPECT_TRUE(result.ok()) << render_report(result);
  EXPECT_EQ(result.compared, 1);
}

TEST(BenchdiffGate, DetectsTwoXWallRegression) {
  const Ledger base = parse_fixture({});
  FixtureSpec slow;
  slow.wall = 20.0;  // 2x > default 1.75x threshold
  const DiffResult result =
      diff_ledgers(base, parse_fixture(slow), DiffOptions{});
  ASSERT_FALSE(result.ok()) << "2x wall regression must fail the gate";
  bool found = false;
  for (const Finding& finding : result.findings) {
    if (finding.metric == "wall_seconds") {
      found = true;
      EXPECT_EQ(finding.kind, Finding::Kind::kTiming);
      EXPECT_NE(finding.detail.find("2.00x"), std::string::npos)
          << finding.detail;
    }
  }
  EXPECT_TRUE(found) << render_report(result);
}

TEST(BenchdiffGate, NoiseFloorSkipsTimingOnTinyRuns) {
  FixtureSpec tiny;
  tiny.wall = 0.05;
  tiny.shard_stage = 0.04;
  FixtureSpec tiny_slow = tiny;
  tiny_slow.wall = 0.5;  // 10x, but below the floor
  DiffOptions options;
  options.min_runtime_seconds = 5.0;  // CI smoke floor
  const DiffResult result =
      diff_ledgers(parse_fixture(tiny), parse_fixture(tiny_slow), options);
  EXPECT_TRUE(result.ok()) << render_report(result);
  ASSERT_FALSE(result.notes.empty());
  EXPECT_NE(result.notes[0].find("noise floor"), std::string::npos);
}

TEST(BenchdiffGate, ItemsMismatchFailsEvenBelowTheNoiseFloor) {
  FixtureSpec tiny;
  tiny.wall = 0.05;
  FixtureSpec drifted = tiny;
  drifted.items = tiny.items + 1;
  DiffOptions options;
  options.min_runtime_seconds = 5.0;
  const DiffResult result =
      diff_ledgers(parse_fixture(tiny), parse_fixture(drifted), options);
  ASSERT_EQ(result.findings.size(), 1u) << render_report(result);
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kExact);
  EXPECT_EQ(result.findings[0].metric, "items");
}

/// Splices a `work` block (the counters' JSON body) into a fixture.
[[nodiscard]] Ledger with_work(const FixtureSpec& spec,
                               const std::string& counters) {
  std::string json = ledger_json(spec);
  json.insert(json.find("\"stages\""), "\"work\":{" + counters + "},");
  std::string error;
  const std::optional<Ledger> ledger = parse_ledger(json, &error);
  EXPECT_TRUE(ledger) << error;
  return *ledger;
}

TEST(BenchdiffGate, WorkCounterDriftFailsEvenBelowTheNoiseFloor) {
  FixtureSpec tiny;
  tiny.wall = 0.05;
  const Ledger baseline =
      with_work(tiny, "\"market_builds\":1,\"churn_days\":979");
  ASSERT_TRUE(baseline.work);
  ASSERT_EQ(baseline.work->size(), 2u);
  EXPECT_EQ((*baseline.work)[1].second, 979u);
  DiffOptions options;
  options.min_runtime_seconds = 5.0;

  const DiffResult same = diff_ledgers(
      baseline, with_work(tiny, "\"market_builds\":1,\"churn_days\":979"),
      options);
  EXPECT_TRUE(same.ok()) << render_report(same);

  // A quadratic replay keeps `items` but multiplies the churn work.
  const DiffResult drifted = diff_ledgers(
      baseline, with_work(tiny, "\"market_builds\":12,\"churn_days\":5874"),
      options);
  ASSERT_EQ(drifted.findings.size(), 2u) << render_report(drifted);
  EXPECT_EQ(drifted.findings[0].kind, Finding::Kind::kExact);
  EXPECT_EQ(drifted.findings[0].metric, "work.market_builds");
  EXPECT_EQ(drifted.findings[1].metric, "work.churn_days");
}

TEST(BenchdiffGate, WorkGateSkipsBaselinesWithoutTheBlock) {
  const Ledger counted = with_work({}, "\"churn_days\":979");
  const DiffResult skipped =
      diff_ledgers(parse_fixture({}), counted, DiffOptions{});
  EXPECT_TRUE(skipped.ok()) << render_report(skipped);

  // The reverse un-gates the counters silently: structural drift.
  const DiffResult lost =
      diff_ledgers(counted, parse_fixture({}), DiffOptions{});
  ASSERT_EQ(lost.findings.size(), 1u) << render_report(lost);
  EXPECT_EQ(lost.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_EQ(lost.findings[0].metric, "work.churn_days");
}

TEST(BenchdiffGate, ConfigDriftIsStructuralNotASilentSkip) {
  FixtureSpec drifted;
  drifted.days = "30";
  const DiffResult result =
      diff_ledgers(parse_fixture({}), parse_fixture(drifted), DiffOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_EQ(result.findings[0].metric, "config.days");
}

TEST(BenchdiffGate, ThreadCountIsNotIdentity) {
  FixtureSpec other_threads;
  other_threads.threads = "16";
  const DiffResult result = diff_ledgers(
      parse_fixture({}), parse_fixture(other_threads), DiffOptions{});
  EXPECT_TRUE(result.ok()) << render_report(result);
  // ... but RSS is then skipped rather than compared across pool shapes.
  bool rss_note = false;
  for (const std::string& note : result.notes) {
    if (note.find("RSS gate skipped") != std::string::npos) rss_note = true;
  }
  EXPECT_TRUE(rss_note);
}

TEST(BenchdiffGate, DetectsPerStageRegression) {
  FixtureSpec slow_stage;
  slow_stage.shard_stage = 24.0;  // 3x > default 2.5x stage threshold
  const DiffResult result =
      diff_ledgers(parse_fixture({}), parse_fixture(slow_stage), DiffOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.findings[0].metric, "stage.landscape_parallel");
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kTiming);
}

TEST(BenchdiffGate, DetectsRssRegressionAtMatchingThreads) {
  FixtureSpec fat;
  fat.rss = 900'000'000;  // 2.25x > default 2.0x
  const DiffResult result =
      diff_ledgers(parse_fixture({}), parse_fixture(fat), DiffOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.findings[0].metric, "peak_rss_bytes");
}

TEST(BenchdiffGate, CandidateLosingTheRssMeasurementIsStructural) {
  // The baseline measured its peak RSS; a candidate that records null would
  // silently un-gate the RSS check forever — the same rule as a lost
  // resource_series, so the two cannot drift apart in strictness.
  const DiffResult result = diff_ledgers(
      parse_fixture({}), parse_fixture_v2({}, true), DiffOptions{});
  ASSERT_FALSE(result.ok()) << render_report(result);
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_EQ(result.findings[0].metric, "peak_rss_bytes");
}

TEST(BenchdiffGate, NullBaselineRssMutesTheRssGateInsteadOfComparingZero) {
  // The baseline itself has no measurement (getrusage failed at capture
  // time): there is nothing to compare against, so the gate mutes with a
  // note — comparing against a fake 0 would either always pass or always
  // fail. A later candidate that does measure is progress, not drift.
  const DiffResult result = diff_ledgers(
      parse_fixture_v2({}, true), parse_fixture({}), DiffOptions{});
  EXPECT_TRUE(result.ok()) << render_report(result);
  bool muted = false;
  for (const std::string& note : result.notes) {
    if (note.find("RSS gate muted") != std::string::npos) muted = true;
  }
  EXPECT_TRUE(muted) << render_report(result);
}

TEST(BenchdiffGate, SlopeRegressionFiresAboveRatioPlusAllowance) {
  // Baseline grows at 1 MB/s; threshold = 3x + 1 MiB/s = 4,048,576 B/s.
  const Ledger base = parse_fixture_v2({}, false, series_block(1'000'000.0));
  const Ledger leaky =
      parse_fixture_v2({}, false, series_block(5'000'000.0));
  const DiffResult bad = diff_ledgers(base, leaky, DiffOptions{});
  ASSERT_FALSE(bad.ok()) << "5 MB/s vs 1 MB/s must trip the slope gate";
  EXPECT_EQ(bad.findings[0].metric, "resource_series.rss_slope");
  EXPECT_EQ(bad.findings[0].kind, Finding::Kind::kTiming);

  const Ledger near =
      parse_fixture_v2({}, false, series_block(4'000'000.0));
  EXPECT_TRUE(diff_ledgers(base, near, DiffOptions{}).ok())
      << "4 MB/s is under the 3x + allowance threshold";
}

TEST(BenchdiffGate, FlatBaselineAllowanceToleratesJitter) {
  // A flat baseline (slope ~0, even slightly negative) must not turn sub-
  // MiB/s allocator jitter into a failure; above the allowance it fails.
  const Ledger flat = parse_fixture_v2({}, false, series_block(-100.0));
  const Ledger jitter =
      parse_fixture_v2({}, false, series_block(500'000.0));
  EXPECT_TRUE(diff_ledgers(flat, jitter, DiffOptions{}).ok());

  const Ledger leak =
      parse_fixture_v2({}, false, series_block(2'000'000.0));
  EXPECT_FALSE(diff_ledgers(flat, leak, DiffOptions{}).ok());
}

TEST(BenchdiffGate, SlopeGateRespectsNoiseFloorAndThreadIdentity) {
  FixtureSpec tiny;
  tiny.wall = 0.05;
  const Ledger base =
      parse_fixture_v2(tiny, false, series_block(1'000'000.0));
  const Ledger leaky =
      parse_fixture_v2(tiny, false, series_block(50'000'000.0));
  DiffOptions floor;
  floor.min_runtime_seconds = 5.0;
  EXPECT_TRUE(diff_ledgers(base, leaky, floor).ok())
      << "sub-floor runs must not be slope-gated";

  FixtureSpec other_threads;
  other_threads.threads = "16";
  const Ledger wide =
      parse_fixture_v2(other_threads, false, series_block(50'000'000.0));
  EXPECT_TRUE(
      diff_ledgers(parse_fixture_v2({}, false, series_block(1'000'000.0)),
                   wide, DiffOptions{})
          .ok())
      << "a different pool shape legitimately changes memory behaviour";
}

TEST(BenchdiffGate, DegenerateSeriesMutesTheSlopeGate) {
  // A single-sample series carries a 0.0 slope placeholder, not a fit;
  // comparing it against a real slope in either direction is meaningless.
  const std::string degenerate =
      "\"resource_series\":{\"interval_seconds\":0.025,\"samples\":1,"
      "\"dropped\":0,\"t_seconds\":[0],\"rss_bytes\":[1000],"
      "\"cpu_seconds\":[0.1],\"rss_slope_bytes_per_second\":0}";
  const Ledger base = parse_fixture_v2({}, false, series_block(1'000'000.0));
  const Ledger short_run = parse_fixture_v2({}, false, degenerate);
  const DiffResult result = diff_ledgers(base, short_run, DiffOptions{});
  EXPECT_TRUE(result.ok()) << render_report(result);
  bool muted = false;
  for (const std::string& note : result.notes) {
    if (note.find("RSS slope gate muted") != std::string::npos) muted = true;
  }
  EXPECT_TRUE(muted) << render_report(result);

  // The mute is symmetric: a degenerate *baseline* must not let a real
  // candidate slope be compared against the 0.0 placeholder either.
  const Ledger leaky =
      parse_fixture_v2({}, false, series_block(50'000'000.0));
  EXPECT_TRUE(diff_ledgers(short_run, leaky, DiffOptions{}).ok());
}

TEST(BenchdiffGate, StreamEngineKeysAreNotIdentity) {
  // `stream` / `stream_batch` pick the engine, whose output is pinned
  // byte-identical by the equivalence suite — a streaming candidate must
  // diff cleanly against a materialized baseline.
  FixtureSpec spec;
  std::string json = ledger_json(spec);
  const std::string anchor = "\"fault_profile\":\"none\"";
  json.replace(json.find(anchor), anchor.size(),
               anchor + ",\"stream\":\"true\",\"stream_batch\":\"8192\"");
  std::string error;
  const std::optional<Ledger> streaming = parse_ledger(json, &error);
  ASSERT_TRUE(streaming) << error;
  const DiffResult result =
      diff_ledgers(parse_fixture(spec), *streaming, DiffOptions{});
  EXPECT_TRUE(result.ok()) << render_report(result);
}

TEST(BenchdiffGate, DetectsIpcRegressionBeyondTheRatio) {
  // Baseline retires 2.0 IPC; a candidate at 1.5 is a 1.33x drop, past the
  // default 1.25x threshold. Cache rates are identical, so the one finding
  // is the IPC gate.
  const Ledger base = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  const Ledger slow = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 15'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  const DiffResult bad = diff_ledgers(base, slow, DiffOptions{});
  ASSERT_FALSE(bad.ok()) << render_report(bad);
  EXPECT_EQ(bad.findings[0].kind, Finding::Kind::kTiming);
  EXPECT_EQ(bad.findings[0].metric, "hw.ipc");
  EXPECT_NE(bad.findings[0].detail.find("IPC regression"), std::string::npos);

  // 2.0 -> 1.7 is a 1.18x drop: within threshold, no finding.
  const Ledger near = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 17'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  EXPECT_TRUE(diff_ledgers(base, near, DiffOptions{}).ok());
}

TEST(BenchdiffGate, DetectsDoubledCacheMissRate) {
  // Baseline misses 5% of references; a candidate missing 10% crosses the
  // 1.5x + 0.02 allowance threshold (0.095). IPC is held identical.
  const Ledger base = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  const Ledger thrashy = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   100'000'000ull));
  const DiffResult bad = diff_ledgers(base, thrashy, DiffOptions{});
  ASSERT_FALSE(bad.ok()) << render_report(bad);
  EXPECT_EQ(bad.findings[0].kind, Finding::Kind::kTiming);
  EXPECT_EQ(bad.findings[0].metric, "hw.cache_miss_rate");

  // 5% -> 9% stays under the threshold: allowance absorbs it.
  const Ledger warm = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   90'000'000ull));
  EXPECT_TRUE(diff_ledgers(base, warm, DiffOptions{}).ok());
}

TEST(BenchdiffGate, ProfUnavailableMutesTheHwGatesWithTheReason) {
  // A candidate whose degradation ladder bottomed out carries an explicit
  // reason; the gates mute with it instead of failing (or comparing
  // phantom zeros). Counters that were never measured must never gate.
  const Ledger base = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  const Ledger refused = parse_fixture_v3(
      {},
      "\"hw_counters\":{\"prof_unavailable\":\"perf_event_open unavailable: "
      "software tier, task-clock: EACCES (Permission denied)\"}");
  const DiffResult result = diff_ledgers(base, refused, DiffOptions{});
  EXPECT_TRUE(result.ok()) << render_report(result);
  bool muted = false;
  for (const std::string& note : result.notes) {
    if (note.find("IPC/cache gates muted") != std::string::npos &&
        note.find("EACCES") != std::string::npos) {
      muted = true;
    }
  }
  EXPECT_TRUE(muted) << render_report(result);

  // One side simply never ran --prof: same mute, different why.
  const DiffResult no_block =
      diff_ledgers(base, parse_fixture_v3({}, ""), DiffOptions{});
  EXPECT_TRUE(no_block.ok()) << render_report(no_block);
  bool noted = false;
  for (const std::string& note : no_block.notes) {
    if (note.find("candidate has no hw_counters block") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted) << render_report(no_block);
}

TEST(BenchdiffGate, HwGatesMuteAcrossThreadCountsAndOnTheSoftwareTier) {
  // Different pool shapes change per-lane counter totals legitimately.
  const std::string hw = hw_block(10'000'000'000ull, 20'000'000'000ull,
                                  1'000'000'000ull, 50'000'000ull);
  FixtureSpec wide;
  wide.threads = "16";
  const DiffResult threads =
      diff_ledgers(parse_fixture_v3({}, hw), parse_fixture_v3(wide, hw),
                   DiffOptions{});
  EXPECT_TRUE(threads.ok()) << render_report(threads);
  bool thread_note = false;
  for (const std::string& note : threads.notes) {
    if (note.find("thread counts differ") != std::string::npos &&
        note.find("IPC/cache") != std::string::npos) {
      thread_note = true;
    }
  }
  EXPECT_TRUE(thread_note) << render_report(threads);

  // The software tier measured task-clock only: no cycles, no cache events
  // — both per-counter gates mute rather than inventing a 0-IPC failure.
  const std::string software =
      "\"hw_counters\":{\"source\":\"software\",\"lanes_failed\":0,"
      "\"dropped_events\":0,\"stages\":[],"
      "\"total\":{\"task_clock_seconds\":1.5,\"page_faults\":42,"
      "\"context_switches\":5}}";
  const DiffResult soft = diff_ledgers(parse_fixture_v3({}, software),
                                       parse_fixture_v3({}, software),
                                       DiffOptions{});
  EXPECT_TRUE(soft.ok()) << render_report(soft);
  bool ipc_muted = false;
  bool cache_muted = false;
  for (const std::string& note : soft.notes) {
    if (note.find("IPC gate muted") != std::string::npos) ipc_muted = true;
    if (note.find("cache-miss-rate gate muted") != std::string::npos) {
      cache_muted = true;
    }
  }
  EXPECT_TRUE(ipc_muted && cache_muted) << render_report(soft);
}

TEST(BenchdiffCheck, FlagsDoctoredIpcAndOutOfRangeCacheRate) {
  // The emitter derives ipc from the raw counts; a hand-edited ledger whose
  // ratio disagrees past representation noise is corrupt, not noisy.
  Ledger doctored = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  EXPECT_TRUE(check_ledger(doctored).empty());
  doctored.hw_counters->total.ipc = 2.5;  // counts still say 2.0
  std::vector<Finding> findings = check_ledger(doctored);
  ASSERT_EQ(findings.size(), 1u) << render_report({findings, {}, 1});
  EXPECT_NE(findings[0].detail.find("instructions/cycles identity"),
            std::string::npos);

  Ledger out_of_range = parse_fixture_v3(
      {}, hw_block(10'000'000'000ull, 20'000'000'000ull, 1'000'000'000ull,
                   50'000'000ull));
  out_of_range.hw_counters->total.cache_miss_rate = 1.5;
  findings = check_ledger(out_of_range);
  // The doctored rate breaks both the misses/references identity and the
  // [0, 1] range — both flagged.
  ASSERT_EQ(findings.size(), 2u) << render_report({findings, {}, 1});
  EXPECT_NE(findings[1].detail.find("outside [0, 1]"), std::string::npos);
}

TEST(BenchdiffFlatRss, GatesAnAbsoluteSlopeBudget) {
  const Ledger flat = parse_fixture_v2({}, false, series_block(500'000.0));
  const DiffResult pass = flat_rss_check(flat, 1024.0 * 1024.0);
  EXPECT_TRUE(pass.ok()) << render_report(pass);
  EXPECT_EQ(pass.compared, 1);

  const Ledger leaky =
      parse_fixture_v2({}, false, series_block(2'000'000.0));
  const DiffResult fail = flat_rss_check(leaky, 1024.0 * 1024.0);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.findings[0].kind, Finding::Kind::kTiming);
  EXPECT_EQ(fail.findings[0].metric, "resource_series.rss_slope");
}

TEST(BenchdiffFlatRss, MissingOrDegenerateSeriesIsStructural) {
  // The flatness gate exists to catch leaks on scaled-up runs; a run that
  // never sampled (or sampled once) silently passing would defeat it.
  const DiffResult no_series = flat_rss_check(parse_fixture({}), 1024.0);
  ASSERT_FALSE(no_series.ok());
  EXPECT_EQ(no_series.findings[0].kind, Finding::Kind::kStructural);

  const std::string one_sample =
      "\"resource_series\":{\"interval_seconds\":0.025,\"samples\":1,"
      "\"dropped\":0,\"t_seconds\":[0],\"rss_bytes\":[1000],"
      "\"cpu_seconds\":[0.1],\"rss_slope_bytes_per_second\":0}";
  const DiffResult degenerate =
      flat_rss_check(parse_fixture_v2({}, false, one_sample), 1024.0);
  ASSERT_FALSE(degenerate.ok());
  EXPECT_EQ(degenerate.findings[0].kind, Finding::Kind::kStructural);
}

TEST(BenchdiffGate, CandidateLosingTheSeriesIsStructuralDrift) {
  const Ledger base = parse_fixture_v2({}, false, series_block(0.0));
  const Ledger bare = parse_fixture({});  // v1: no series
  const DiffResult result = diff_ledgers(base, bare, DiffOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_EQ(result.findings[0].metric, "resource_series");

  // The reverse — candidate gained a series — is progress, not drift.
  EXPECT_TRUE(diff_ledgers(bare, base, DiffOptions{}).ok());
}

TEST(BenchdiffCheck, FlagsSeriesArrayMismatchAndNonMonotoneTime) {
  const Ledger miscounted =
      parse_fixture_v2({}, false, series_block(0.0, /*samples=*/5));
  std::vector<Finding> findings = check_ledger(miscounted);
  ASSERT_EQ(findings.size(), 1u) << render_report({findings, {}, 1});
  EXPECT_NE(findings[0].detail.find("declared sample count"),
            std::string::npos);

  const Ledger unordered = parse_fixture_v2(
      {}, false, series_block(0.0, /*samples=*/3, "[0,2,1]"));
  findings = check_ledger(unordered);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("monotonically"), std::string::npos);
}

TEST(BenchdiffCheck, FlagsInternalInconsistency) {
  FixtureSpec spec;
  Ledger ledger = parse_fixture(spec);
  EXPECT_TRUE(check_ledger(ledger).empty());

  ledger.experiment.clear();
  ledger.stages[0].self_seconds = ledger.stages[0].total_seconds + 1.0;
  const std::vector<Finding> findings = check_ledger(ledger);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].metric, "experiment");
  EXPECT_NE(findings[1].detail.find("self time exceeds total"),
            std::string::npos);
}

TEST(BenchdiffCheck, FlagsUtilizationAboveOne) {
  // A saturated pool (utilization exactly 1) is legitimate; anything above
  // 1 means pool work ran outside the timed wall.
  const auto with_utilization = [](const std::string& value) {
    std::string json = ledger_json(FixtureSpec{});
    const std::string half = "\"utilization\":0.5";
    json.replace(json.find(half), half.size(), "\"utilization\":" + value);
    std::string error;
    const std::optional<Ledger> ledger = parse_ledger(json, &error);
    EXPECT_TRUE(ledger) << error;
    return *ledger;
  };
  EXPECT_TRUE(check_ledger(with_utilization("1")).empty());

  const std::vector<Finding> findings =
      check_ledger(with_utilization("1.0202264337712155"));
  ASSERT_EQ(findings.size(), 1u) << render_report({findings, {}, 1});
  EXPECT_EQ(findings[0].kind, Finding::Kind::kStructural);
  EXPECT_EQ(findings[0].metric, "pool");
  EXPECT_NE(findings[0].detail.find("outside the timed wall"),
            std::string::npos);
}

class BenchdiffDirs : public testing::Test {
 protected:
  void SetUp() override {
    // Each case gets its own directories: ctest -j runs the cases as
    // concurrent processes that share TempDir().
    const std::string suffix =
        std::string("_") +
        testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        std::to_string(::getpid());
    base_dir_ = testing::TempDir() + "/benchdiff_base" + suffix;
    cand_dir_ = testing::TempDir() + "/benchdiff_cand" + suffix;
    std::filesystem::create_directories(base_dir_);
    std::filesystem::create_directories(cand_dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(base_dir_);
    std::filesystem::remove_all(cand_dir_);
  }
  static void write_file(const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
    ASSERT_TRUE(out.good()) << path;
  }
  std::string base_dir_;
  std::string cand_dir_;
};

TEST_F(BenchdiffDirs, PairsLedgersByFileNameAndReportsMissing) {
  FixtureSpec fig4;
  FixtureSpec fig5;
  fig5.experiment = "fig5";
  write_file(base_dir_ + "/BENCH_fig4.json", ledger_json(fig4));
  write_file(base_dir_ + "/BENCH_fig5.json", ledger_json(fig5));
  write_file(cand_dir_ + "/BENCH_fig4.json", ledger_json(fig4));

  DiffOptions lenient;
  const DiffResult ok = diff_directories(base_dir_, cand_dir_, lenient);
  EXPECT_TRUE(ok.ok()) << render_report(ok);
  EXPECT_EQ(ok.compared, 1);

  DiffOptions strict;
  strict.require_all = true;
  const DiffResult missing = diff_directories(base_dir_, cand_dir_, strict);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.findings[0].kind, Finding::Kind::kMissing);
  EXPECT_EQ(missing.findings[0].experiment, "fig5");
}

TEST_F(BenchdiffDirs, MalformedCandidateIsAFinding) {
  write_file(base_dir_ + "/BENCH_fig4.json", ledger_json({}));
  write_file(cand_dir_ + "/BENCH_fig4.json", "{not json");
  const DiffResult result =
      diff_directories(base_dir_, cand_dir_, DiffOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kMalformed);
}

TEST_F(BenchdiffDirs, CheckDirectoryValidatesEveryBaseline) {
  write_file(base_dir_ + "/BENCH_fig4.json", ledger_json({}));
  const DiffResult good = check_directory(base_dir_);
  EXPECT_TRUE(good.ok()) << render_report(good);
  EXPECT_EQ(good.compared, 1);

  write_file(base_dir_ + "/BENCH_broken.json", "[]");
  const DiffResult bad = check_directory(base_dir_);
  EXPECT_FALSE(bad.ok());
}

TEST_F(BenchdiffDirs, UnpairedCandidateIsStructuralDrift) {
  // A candidate with no committed baseline is a bench that runs ungated —
  // loud structural drift, not a polite note.
  FixtureSpec fig4;
  FixtureSpec fig5;
  fig5.experiment = "fig5";
  write_file(base_dir_ + "/BENCH_fig4.json", ledger_json(fig4));
  write_file(cand_dir_ + "/BENCH_fig4.json", ledger_json(fig4));
  write_file(cand_dir_ + "/BENCH_fig5.json", ledger_json(fig5));

  const DiffResult result =
      diff_directories(base_dir_, cand_dir_, DiffOptions{});
  ASSERT_FALSE(result.ok()) << render_report(result);
  EXPECT_EQ(result.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_EQ(result.findings[0].experiment, "BENCH_fig5.json");
  EXPECT_NE(result.findings[0].detail.find("no committed baseline pair"),
            std::string::npos);
  // The finding tells CI exactly which file to commit.
  EXPECT_NE(result.findings[0].detail.find("BENCH_fig5.json"),
            std::string::npos);
}

TEST_F(BenchdiffDirs, EmptyAndMissingBaselineDirsAreDistinctFindings) {
  // Both shapes mean zero gating would happen — a loud failure either way,
  // but with distinct messages so the fix (commit baselines vs fix the
  // path) is obvious from the report alone.
  write_file(cand_dir_ + "/BENCH_fig4.json", ledger_json({}));

  const DiffResult empty =
      diff_directories(base_dir_, cand_dir_, DiffOptions{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_NE(empty.findings[0].detail.find("contains no BENCH_*.json"),
            std::string::npos)
      << render_report(empty);

  const DiffResult missing = diff_directories(
      base_dir_ + "/no_such_subdir", cand_dir_, DiffOptions{});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.findings[0].kind, Finding::Kind::kStructural);
  EXPECT_NE(missing.findings[0].detail.find("does not exist"),
            std::string::npos)
      << render_report(missing);
}

TEST(BenchdiffReport, RendersPassAndFailTrailers) {
  const Ledger base = parse_fixture({});
  const std::string pass =
      render_report(diff_ledgers(base, base, DiffOptions{}));
  EXPECT_NE(pass.find("PASS"), std::string::npos);

  FixtureSpec slow;
  slow.wall = 100.0;
  const std::string fail = render_report(
      diff_ledgers(base, parse_fixture(slow), DiffOptions{}));
  EXPECT_NE(fail.find("FAIL [timing]"), std::string::npos);
}

}  // namespace
}  // namespace booterscope::benchdiff
