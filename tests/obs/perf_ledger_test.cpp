// Unit tests for PerfLedger: the BENCH_<id>.json schema contract that
// tools/benchdiff parses on the other side — headline numbers, per-stage
// self/total breakdown, pool utilization, nullable peak RSS, the live
// sampler's resource_series block (schema /2), and the schema-/3
// hw_counters / work blocks with their tier-gated field emission.
#include "obs/perf_ledger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "obs/trace.hpp"

namespace booterscope::obs {
namespace {

TEST(PerfLedger, EmitsTheLedgerSchemaWithIdentityAndHeadlines) {
  PerfLedger ledger("bench_unit");
  ledger.set_experiment("unit");
  ledger.set_seed(42);
  ledger.add_config("days", std::uint64_t{12});
  ledger.add_config("fault_profile", "none");
  ledger.set_wall_nanos(2'000'000'000);  // 2 s
  ledger.set_items(1024);

  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"schema\":\"booterscope-bench-ledger/3\""),
            std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"bench_unit\""), std::string::npos);
  EXPECT_NE(json.find("\"experiment\":\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"config\":{\"days\":\"12\",\"fault_profile\":"
                      "\"none\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wall_seconds\":2"), std::string::npos);
  EXPECT_NE(json.find("\"items\":1024"), std::string::npos);
  // 1024 items / 2 s; 512 is exactly representable and renders as plain
  // digits under json_number's shortest-round-trip rule.
  EXPECT_NE(json.find("\"items_per_second\":512"), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\":"), std::string::npos);

  // Work counters serialize as one block, in insertion order, only when
  // some were added.
  EXPECT_EQ(json.find("\"work\""), std::string::npos);
  ledger.add_work("market_builds", 1);
  ledger.add_work("churn_days", 979);
  EXPECT_NE(ledger.to_json().find(
                "\"work\":{\"market_builds\":1,\"churn_days\":979}"),
            std::string::npos);
}

/// One closed stage record with synthetic timestamps under `parent`.
SpanRecord stage(std::string name, std::int64_t begin, std::int64_t end,
                 SpanRef parent = {}) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = parent;
  record.begin_nanos = begin;
  record.end_nanos = end;
  return record;
}

TEST(PerfLedger, StageBreakdownComputesSelfFromChildren) {
  // Known walls through the log's completed-record append: outer 100ms
  // total with a 30ms child leaves 70ms self; leaf self == total.
  StageTracer fixed;
  const SpanRef outer = fixed.append(0, stage("outer", 0, 100'000'000));
  fixed.append(0, stage("inner", 10'000'000, 40'000'000, outer));

  PerfLedger ledger("bench_unit");
  ledger.set_stages(fixed);
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"name\":\"outer\",\"depth\":0,\"total_seconds\":0.1,"
                      "\"self_seconds\":0.07"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"inner\",\"depth\":1,\"total_seconds\":0.03,"
                      "\"self_seconds\":0.03"),
            std::string::npos)
      << json;
}

// Self time subtracts only children on the parent's own lane. Pool-4 shape:
// the driver's day_shards (100ms) fans out to four overlapping 95ms worker
// shards; its self time is its whole driver-lane wall,
// and no stage's self exceeds its total.
TEST(PerfLedger, WorkerChildrenOverlapRatherThanNestInSelfTime) {
  StageTracer tracer;
  const SpanRef shards = tracer.append(0, stage("day_shards", 0, 100'000'000));
  for (std::size_t lane = 1; lane <= 4; ++lane) {
    const SpanRef shard =
        tracer.append(lane, stage("day_shard", 0, 95'000'000, shards));
    tracer.append(lane, stage("market", 0, 60'000'000, shard));
  }
  tracer.append(0, stage("drain", 100'000'000, 120'000'000));

  PerfLedger ledger("bench_unit");
  ledger.set_stages(tracer);
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"name\":\"day_shards\",\"depth\":0,"
                      "\"total_seconds\":0.1,\"self_seconds\":0.1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"day_shard\",\"depth\":1,\"worker\":3,"
                      "\"total_seconds\":0.095,\"self_seconds\":0.035"),
            std::string::npos)
      << json;
  for (const auto& flat : tracer.flatten()) {
    EXPECT_LE(flat.node->self_nanos(), flat.node->wall_nanos);
  }
}

TEST(PerfLedger, PoolStatsRenderUtilizationAgainstWall) {
  PerfLedger ledger("bench_unit");
  ledger.set_wall_nanos(1'000'000'000);  // 1 s wall
  // Two workers, together busy 1.5s of the 2s capacity => 0.75.
  ledger.set_pool_stats(64, 3, {1'000'000'000, 500'000'000});
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"pool\":{\"workers\":2,\"tasks\":64,\"steals\":3"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"busy_seconds\":[1,0.5]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"busy_seconds_total\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\":0.75"), std::string::npos);
}

TEST(PerfLedger, PeakRssIsCapturedOnPosix) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0u);
  EXPECT_TRUE(try_peak_rss_bytes().has_value());
  PerfLedger ledger("bench_unit");
  ledger.capture_peak_rss();
  const std::string json = ledger.to_json();
  EXPECT_EQ(json.find("\"peak_rss_bytes\":0}"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"peak_rss_bytes\":null"), std::string::npos) << json;
#else
  GTEST_SKIP() << "no getrusage on this platform";
#endif
}

TEST(PerfLedger, UncapturedPeakRssSerializesAsNullNotZero) {
  // A failed (or never attempted) capture must be distinguishable from a
  // genuine 0-byte measurement: benchdiff mutes its RSS gate on null but
  // would compare against a fake 0.
  PerfLedger ledger("bench_unit");
  ledger.clear_peak_rss();
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"peak_rss_bytes\":null"), std::string::npos) << json;
}

TEST(PerfLedger, ResourceSeriesBlockSerializesParallelArrays) {
  PerfLedger ledger("bench_unit");
  PerfLedger::ResourceSeries series;
  series.interval_nanos = 25'000'000;
  series.dropped = 2;
  series.t_seconds = {0.0, 0.025, 0.05};
  series.rss_bytes = {1000, 2000, 3000};
  series.cpu_seconds = {0.1, 0.2, 0.3};
  series.rss_slope_bytes_per_second = 512.0;
  ledger.set_resource_series(std::move(series));
  ASSERT_TRUE(ledger.has_resource_series());

  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"resource_series\":{\"interval_seconds\":0.025"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"samples\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rss_bytes\":[1000,2000,3000]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cpu_seconds\":[0.1,0.2,0.3]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rss_slope_bytes_per_second\":512"),
            std::string::npos)
      << json;

  // Without the block the key must be absent entirely (schema /2 keeps it
  // optional so sampler-off runs stay small).
  PerfLedger bare("bench_unit");
  EXPECT_FALSE(bare.has_resource_series());
  EXPECT_EQ(bare.to_json().find("resource_series"), std::string::npos);
}

TEST(PerfLedger, HwCountersHardwareTierEmitsDerivedRatesAndIpcIdentity) {
  PerfLedger ledger("bench_unit");
  PerfLedger::HwCounters hw;
  hw.source = "hardware";
  PerfLedger::HwCounters::Stage stage;
  stage.path = "sim;day_shards";
  stage.lane = 2;
  stage.sections = 7;
  stage.v.cycles = 3'000'000;
  stage.v.instructions = 7'000'000;
  stage.v.cache_references = 1000;
  stage.v.cache_misses = 250;
  stage.v.branches = 500;
  stage.v.branch_misses = 25;
  stage.v.task_clock_nanos = 1'500'000;
  hw.stages.push_back(stage);
  hw.total = stage.v;
  hw.lanes_failed = 1;
  hw.dropped_events = 3;
  ledger.set_hw_counters(hw);
  ASSERT_TRUE(ledger.has_hw_counters());

  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"hw_counters\":{\"source\":\"hardware\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"path\":\"sim;day_shards\",\"lane\":2,"
                      "\"sections\":7"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cycles\":3000000,\"instructions\":7000000"),
            std::string::npos)
      << json;
  // IPC is exactly instructions/cycles in double arithmetic; json_number's
  // shortest-round-trip rule means the parsed-back value matches to the
  // bit, which benchdiff --check re-verifies at ±1e-9.
  const double ipc = 7'000'000.0 / 3'000'000.0;
  char expect[64];
  std::snprintf(expect, sizeof expect, "\"ipc\":%.17g", ipc);
  EXPECT_TRUE(json.find("\"ipc\":2.3333333333333335") != std::string::npos ||
              json.find(expect) != std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cache_miss_rate\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"branch_miss_rate\":0.05"), std::string::npos) << json;
  EXPECT_NE(json.find("\"task_clock_seconds\":0.0015"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lanes_failed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos) << json;
  // Software-tier extras must not leak into a hardware-tier block.
  EXPECT_EQ(json.find("page_faults"), std::string::npos) << json;
}

TEST(PerfLedger, HwCountersSoftwareTierOmitsUnmeasuredFields) {
  PerfLedger ledger("bench_unit");
  PerfLedger::HwCounters hw;
  hw.source = "software";
  hw.total.task_clock_nanos = 2'000'000'000;
  hw.total.page_faults = 42;
  hw.total.context_switches = 5;
  ledger.set_hw_counters(hw);

  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"hw_counters\":{\"source\":\"software\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"total\":{\"task_clock_seconds\":2,"
                      "\"page_faults\":42,\"context_switches\":5}"),
            std::string::npos)
      << json;
  // The software tier never opened the PMU: cycles/cache/branch fields must
  // be absent, not zero — a reader cannot distinguish a fake 0 from a
  // perfectly cache-resident run.
  EXPECT_EQ(json.find("cycles"), std::string::npos) << json;
  EXPECT_EQ(json.find("cache_misses"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ipc\""), std::string::npos) << json;
}

TEST(PerfLedger, HwCountersZeroCyclesOmitsIpcRatherThanDividing) {
  PerfLedger ledger("bench_unit");
  PerfLedger::HwCounters hw;
  hw.source = "reduced";
  hw.total.cycles = 0;  // multiplexed out entirely
  hw.total.instructions = 100;
  ledger.set_hw_counters(hw);
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"cycles\":0,\"instructions\":100"), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"ipc\""), std::string::npos) << json;
}

TEST(PerfLedger, HwCountersUnavailableEmitsReasonOnly) {
  PerfLedger ledger("bench_unit");
  PerfLedger::HwCounters hw;
  hw.unavailable_reason = "perf_event_open unavailable: EACCES";
  // Values accidentally left in the struct must not serialize alongside the
  // reason — the two shapes are mutually exclusive.
  hw.total.cycles = 123;
  ledger.set_hw_counters(hw);
  const std::string json = ledger.to_json();
  EXPECT_NE(json.find("\"hw_counters\":{\"prof_unavailable\":"
                      "\"perf_event_open unavailable: EACCES\"}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"cycles\""), std::string::npos) << json;
}

TEST(PerfLedger, NoHwCountersBlockWhenNeverSet) {
  PerfLedger ledger("bench_unit");
  EXPECT_FALSE(ledger.has_hw_counters());
  EXPECT_EQ(ledger.to_json().find("hw_counters"), std::string::npos);
}

TEST(PerfLedger, WriteRoundTripsToDisk) {
  PerfLedger ledger("bench_unit");
  ledger.set_experiment("roundtrip");
  const std::string path =
      testing::TempDir() + "/booterscope_perf_ledger_test.json";
  ASSERT_TRUE(ledger.write(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents(1 << 12, '\0');
  const std::size_t read =
      std::fread(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  contents.resize(read);
  EXPECT_EQ(contents, ledger.to_json());
}

}  // namespace
}  // namespace booterscope::obs
