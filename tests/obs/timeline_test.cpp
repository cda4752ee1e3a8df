// Unit tests for the span log's lane recording and its Chrome trace
// projection (what --timeline writes): lane-local appends, counter
// sampling, trace-event export, and the merge determinism contract — the
// exported bytes are a pure function of the log, whatever pool size
// executed the work.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace booterscope::obs {
namespace {

/// One closed record of `kind` with synthetic timestamps.
SpanRecord closed(SpanKind kind, std::string name, std::int64_t begin,
                  std::int64_t end, double value = 0.0) {
  SpanRecord record;
  record.kind = kind;
  record.name = std::move(name);
  record.begin_nanos = begin;
  record.end_nanos = end;
  record.value = value;
  return record;
}

TEST(Timeline, RecordsSpansIntoTheCallersLane) {
  StageTracer tracer;
  { StageTimer alpha(tracer, "alpha"); }
  set_current_lane(2);
  { StageTimer beta(tracer, "beta"); }
  set_current_lane(0);
  ASSERT_EQ(tracer.lane_count(), 3u);
  ASSERT_EQ(tracer.spans(0).size(), 1u);
  EXPECT_EQ(tracer.spans(0)[0].name, "alpha");
  EXPECT_FALSE(tracer.spans(0)[0].open);
  EXPECT_LE(tracer.spans(0)[0].begin_nanos, tracer.spans(0)[0].end_nanos);
  EXPECT_TRUE(tracer.spans(1).empty());
  ASSERT_EQ(tracer.spans(2).size(), 1u);
  EXPECT_EQ(tracer.spans(2)[0].name, "beta");
  EXPECT_EQ(tracer.spans(2)[0].kind, SpanKind::kStage);
}

TEST(Timeline, OutOfRangeLaneCountsAsDroppedNotCorrupted) {
  StageTracer tracer;
  constexpr std::size_t kBeyond = LaneTable<int>::kMaxLanes;
  set_current_lane(static_cast<int>(kBeyond) + 6);
  { StageTimer lost(tracer, "lost"); }
  set_current_lane(0);
  EXPECT_FALSE(
      tracer.append(kBeyond, closed(SpanKind::kInstant, "also-lost", 3, 3))
          .valid());
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(tracer.lane_count(), 0u);
  EXPECT_TRUE(tracer.root().children.empty());
}

TEST(Timeline, SampleCountersFiltersByPrefixIntoLaneZero) {
  MetricsRegistry registry;
  registry.counter("booterscope_exec_tasks_total", {{"worker", "0"}}).add(5);
  registry.gauge("booterscope_exec_worker_busy_seconds").set(1.5);
  registry.counter("booterscope_landscape_attacks_total").add(9);

  StageTracer tracer;
  tracer.sample_counters(registry, "booterscope_exec", 1000);
  const auto records = tracer.spans(0);
  ASSERT_EQ(records.size(), 2u);
  for (const SpanRecord& record : records) {
    EXPECT_EQ(record.kind, SpanKind::kCounter);
    EXPECT_EQ(record.begin_nanos, 1000);
    EXPECT_EQ(record.name.rfind("booterscope_exec", 0), 0u)
        << "sampled outside prefix: " << record.name;
  }
  EXPECT_EQ(records[0].name, "booterscope_exec_tasks_total{worker=0}");
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_DOUBLE_EQ(records[0].value, 5.0);
#endif
  // Counter samples feed the Chrome trace, never the stage tree.
  EXPECT_TRUE(tracer.root().children.empty());
}

TEST(Timeline, ChromeJsonIsWellFormedAndLabelsLanes) {
  StageTracer tracer;
  tracer.append(0, closed(SpanKind::kStage, "stagey", 1000, 4000));
  tracer.append(1, closed(SpanKind::kTask, "task", 2000, 2500));
  const std::string json = tracer.chrome_trace_json(0);

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"driver\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker 0\""), std::string::npos);
  // Spans export as "X" complete events with microsecond ts/dur.
  EXPECT_NE(json.find("\"name\":\"stagey\",\"cat\":\"stage\",\"pid\":1,"
                      "\"tid\":0,\"ts\":1,\"ph\":\"X\",\"dur\":3"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cat\":\"task\",\"pid\":1,\"tid\":1,\"ts\":2,"
                      "\"ph\":\"X\",\"dur\":0.5"),
            std::string::npos)
      << json;
  // Valid JSON object: balanced braces at the ends and no trailing comma
  // before the closing bracket.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find(",]"), std::string::npos);
}

TEST(Timeline, CounterEventsExportAsCounterPhase) {
  MetricsRegistry registry;
  registry.counter("booterscope_exec_tasks_total").add(3);
  StageTracer tracer;
  tracer.sample_counters(registry, "booterscope_exec", 5000);
  const std::string json = tracer.chrome_trace_json(0);
#ifndef BOOTERSCOPE_NO_METRICS
  EXPECT_NE(json.find("\"ph\":\"C\",\"args\":{\"value\":3}"),
            std::string::npos)
      << json;
#else
  EXPECT_NE(json.find("\"ph\":\"C\",\"args\":{\"value\":0}"),
            std::string::npos)
      << json;
#endif
}

// The live sampler's export path: one pre-valued point per tick, appended
// to lane 0 without a registry read. Same "C" phase as sample_counters so
// Perfetto draws both under the span rows.
TEST(Timeline, AddCounterSampleEmitsCounterTrackOnLaneZero) {
  StageTracer tracer;
  tracer.append(0, closed(SpanKind::kCounter, "booterscope_live_rss_bytes",
                          7000, 7000, 4096.0));
  tracer.append(0, closed(SpanKind::kCounter, "booterscope_live_rss_bytes",
                          9000, 9000, 8192.0));
  const std::string json = tracer.chrome_trace_json(0);
  EXPECT_NE(json.find("booterscope_live_rss_bytes"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ts\":7,\"ph\":\"C\",\"args\":{\"value\":4096}"),
            std::string::npos)
      << json;
  EXPECT_EQ(tracer.spans(0).size(), 2u);
}

// The determinism contract: the exported document is a pure function of
// the log. Execute the same synthetic workload on pools of size 1, 2 and
// 8, derive every timestamp and lane from the *index* (not the clock, not
// the worker), append the records through the same completed-record path
// the pool uses for its task records, and the bytes must match exactly.
TEST(Timeline, MergeIsByteIdenticalAcrossPoolSizes) {
  constexpr std::size_t kItems = 64;
  constexpr std::size_t kLanes = 9;  // fixed, independent of pool size

  const auto run = [&](std::size_t threads) {
    exec::ThreadPool pool(threads);
    struct Slot {
      std::int64_t begin = 0;
      std::int64_t end = 0;
      std::size_t lane = 0;
    };
    std::vector<Slot> slots(kItems);
    pool.parallel_for(kItems, [&](std::size_t i) {
      // Synthetic, index-derived span: overlapping on purpose so the
      // (begin, lane, seq) tie-break in the merge is exercised.
      slots[i].begin = static_cast<std::int64_t>((i % 8) * 100);
      slots[i].end = slots[i].begin + static_cast<std::int64_t>(50 + i);
      slots[i].lane = 1 + (i % (kLanes - 1));
    });
    pool.wait_idle();
    StageTracer tracer;
    for (const Slot& slot : slots) {  // task order, pool idle
      tracer.append(slot.lane,
                    closed(SpanKind::kTask, "unit", slot.begin, slot.end));
    }
    return tracer.chrome_trace_json(0);
  };

  const std::string one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
  EXPECT_NE(one.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Timeline, WriteProducesALoadableFile) {
  StageTracer tracer;
  tracer.append(0, closed(SpanKind::kStage, "io", 0, 10));
  const std::string path =
      testing::TempDir() + "/booterscope_timeline_test.trace.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents(1 << 12, '\0');
  const std::size_t read =
      std::fread(contents.data(), 1, contents.size(), file);
  std::fclose(file);
  contents.resize(read);
  EXPECT_EQ(contents, tracer.chrome_trace_json());
}

}  // namespace
}  // namespace booterscope::obs
