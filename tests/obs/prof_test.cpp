// Unit tests for obs::prof: the perf_event_open degradation ladder (with
// injected kernel refusals — CI containers are exactly the environment the
// ladder exists for), per-lane counter reads, the stage attribution
// projected from the span log, and the folded-stack renderings. Counter
// *values* are asserted only where the software tier is genuinely
// available; everything structural (paths, sections, lanes, ordering,
// honesty on failure) is deterministic.
#include "obs/prof/profiler.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include "obs/lane.hpp"
#include "obs/prof/perf_counters.hpp"
#include "obs/trace.hpp"

namespace booterscope::obs::prof {
namespace {

/// Opener that refuses every event with `err` (a paranoid container).
CounterGroup::Opener refuse_all(int err) {
  return [err](std::uint32_t, std::uint64_t, int) { return -err; };
}

TEST(CounterSample, DeltaSinceSaturatesAndAccumulates) {
  CounterSample a;
  a.cycles = 100;
  a.task_clock_nanos = 50;
  CounterSample b;
  b.cycles = 130;
  b.task_clock_nanos = 40;  // jitter went backwards
  const CounterSample delta = b.delta_since(a);
  EXPECT_EQ(delta.cycles, 30u);
  EXPECT_EQ(delta.task_clock_nanos, 0u);  // clamped, never underflows

  CounterSample sum;
  sum.accumulate(delta);
  sum.accumulate(delta);
  EXPECT_EQ(sum.cycles, 60u);
}

TEST(CounterLadder, RefusedEverywhereLandsOnDisabledWithTheFullChain) {
  const CounterGroup group = open_thread_counters({}, refuse_all(EACCES));
  EXPECT_FALSE(group.enabled());
  EXPECT_EQ(group.tier(), Tier::kDisabled);
  // The reason names every rung it tried and the errno that refused it —
  // the string the ledger records as prof_unavailable.
  EXPECT_NE(group.unavailable_reason().find("hardware tier"),
            std::string::npos)
      << group.unavailable_reason();
  EXPECT_NE(group.unavailable_reason().find("software tier"),
            std::string::npos);
  EXPECT_NE(group.unavailable_reason().find("EACCES"), std::string::npos);
}

TEST(CounterLadder, FailureChainRecordsEachRungsErrno) {
  // Refuse PERF_TYPE_HARDWARE (type 0) with ENOENT — the VM-without-PMU
  // shape — and everything else with ENOSYS. The ladder lands disabled and
  // the chain shows the hardware rungs failing with ENOENT before the
  // software rung's ENOSYS, so the reason string explains the whole walk.
  const CounterGroup group =
      open_thread_counters({}, [](std::uint32_t type, std::uint64_t, int) {
        return type == 0 ? -ENOENT : -ENOSYS;
      });
  EXPECT_FALSE(group.enabled());
  const std::string& reason = group.unavailable_reason();
  EXPECT_LT(reason.find("ENOENT"), reason.find("ENOSYS")) << reason;
}

TEST(CounterLadder, ForceTokens) {
  // "off" skips the ladder entirely.
  const CounterGroup off = open_thread_counters("off");
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.unavailable_reason().empty());

  // "fail:ENOSYS" simulates the syscall missing (seccomp) without an
  // injected opener — the spelling CI uses via BOOTERSCOPE_PROF_FORCE.
  const CounterGroup fail = open_thread_counters("fail:ENOSYS");
  EXPECT_FALSE(fail.enabled());
  EXPECT_NE(fail.unavailable_reason().find("ENOSYS"), std::string::npos)
      << fail.unavailable_reason();

  // An unknown token must not silently count something unexpected.
  const CounterGroup junk = open_thread_counters("fastest");
  EXPECT_FALSE(junk.enabled());
  EXPECT_NE(junk.unavailable_reason().find("fastest"), std::string::npos)
      << junk.unavailable_reason();
}

TEST(CounterLadder, RealProbeNeverFabricates) {
  // Whatever this machine grants, the verdict is internally consistent:
  // enabled with an empty reason, or disabled with a non-empty one.
  const CounterGroup group = open_thread_counters();
  if (group.enabled()) {
    EXPECT_TRUE(group.unavailable_reason().empty());
  } else {
    EXPECT_FALSE(group.unavailable_reason().empty());
  }
}

TEST(CounterLadder, SoftwareTierCountsTaskClockWhereAvailable) {
  CounterGroup group = open_thread_counters("software");
  if (!group.enabled()) {
    GTEST_SKIP() << "software tier unavailable here: "
                 << group.unavailable_reason();
  }
  EXPECT_EQ(group.tier(), Tier::kSoftware);
  // Burn some CPU so task-clock visibly advances.
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  CounterSample sample;
  ASSERT_TRUE(group.read(sample));
  EXPECT_GT(sample.task_clock_nanos, 0u);
  // Hardware fields were never opened on this tier: they must read 0 (and
  // the ledger must not serialize them — covered in perf_ledger_test).
  EXPECT_EQ(sample.cycles, 0u);
  EXPECT_EQ(sample.cache_misses, 0u);
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

TEST(Profiler, DisabledLadderIsInertAndCarriesTheReason) {
  Profiler::Options options;
  options.opener = refuse_all(EACCES);
  Profiler profiler(std::move(options));
  EXPECT_FALSE(profiler.available());
  EXPECT_NE(profiler.unavailable_reason().find("EACCES"), std::string::npos);
  // Reads are refusals, not crashes, and spans stay uncounted.
  CounterSample sample;
  EXPECT_FALSE(profiler.read(sample));
  StageTracer tracer;
  tracer.set_profiler(&profiler);
  { StageTimer sim(tracer, "sim"); }
  EXPECT_FALSE(tracer.spans(0)[0].counted);
  EXPECT_TRUE(stage_counters(tracer).empty());
  EXPECT_EQ(profiler.dropped(), 0u);  // disabled short-circuits before drops
}

TEST(Profiler, AttributesNestedSectionsByPathOnTheSoftwareTier) {
  Profiler::Options options;
  options.force = "software";
  Profiler profiler(std::move(options));
  if (!profiler.available()) {
    GTEST_SKIP() << "software tier unavailable here: "
                 << profiler.unavailable_reason();
  }
  EXPECT_EQ(profiler.tier(), Tier::kSoftware);

  StageTracer tracer;
  tracer.set_profiler(&profiler);
  {
    StageTimer landscape(tracer, "landscape");
    {
      StageTimer shards(tracer, "day_shards");
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 1'000'000; ++i) {
        sink = sink + static_cast<std::uint64_t>(i);
      }
    }
    { StageTimer merge(tracer, "merge"); }
    { StageTimer merge(tracer, "merge"); }  // same path again: sections=2
  }

  const std::vector<StageCounters> stages = stage_counters(tracer);
  ASSERT_EQ(stages.size(), 3u);
  // Sorted by (path, lane): nesting paths are ';'-joined.
  EXPECT_EQ(stages[0].path, "landscape");
  EXPECT_EQ(stages[1].path, "landscape;day_shards");
  EXPECT_EQ(stages[2].path, "landscape;merge");
  EXPECT_EQ(stages[0].sections, 1u);
  EXPECT_EQ(stages[1].sections, 1u);
  EXPECT_EQ(stages[2].sections, 2u);
  for (const auto& entry : stages) EXPECT_EQ(entry.lane, 0);
  // The busy inner section accumulated real task-clock self time.
  EXPECT_GT(stages[1].self.task_clock_nanos, 0u);
  EXPECT_EQ(profiler.dropped(), 0u);
  EXPECT_EQ(profiler.lanes_failed(), 0u);
}

TEST(Profiler, WorkerLaneOpensLazilyAndTagsItsStages) {
  Profiler::Options options;
  options.force = "software";
  Profiler profiler(std::move(options));
  if (!profiler.available()) {
    GTEST_SKIP() << "software tier unavailable here: "
                 << profiler.unavailable_reason();
  }
  StageTracer tracer;
  tracer.set_profiler(&profiler);

  // A perf group counts only the thread that opened it, so the worker lane
  // must run on its own thread, exactly like a pool worker would.
  std::thread worker([&tracer] {
    obs::set_current_lane(1);
    StageTimer task(tracer, "task");
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 500'000; ++i) sink = sink + 1;
  });
  worker.join();

  const std::vector<StageCounters> stages = stage_counters(tracer);
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].path, "task");
  EXPECT_EQ(stages[0].lane, 1);
  EXPECT_EQ(profiler.lanes_failed(), 0u);
}

TEST(Profiler, OutOfRangeLaneCountsAsDropped) {
  Profiler::Options options;
  options.force = "software";
  Profiler profiler(std::move(options));
  if (!profiler.available()) {
    GTEST_SKIP() << "software tier unavailable here: "
                 << profiler.unavailable_reason();
  }
  obs::set_current_lane(static_cast<int>(LaneTable<int>::kMaxLanes));
  CounterSample sample;
  EXPECT_FALSE(profiler.read(sample));
  obs::set_current_lane(0);
  EXPECT_TRUE(profiler.read(sample));
  EXPECT_EQ(profiler.dropped(), 1u);
}

// Counter self values follow the wall-time rule: a node minus its children
// on the same lane; a worker-lane child overlaps its parent instead.
TEST(StageCounters, SelfSubtractsOnlySameLaneChildren) {
  const auto counted = [](SpanRecord record, std::uint64_t from,
                          std::uint64_t to) {
    record.counted = true;
    record.counters_begin.cycles = from;
    record.counters_end.cycles = to;
    return record;
  };
  StageTracer tracer;
  const SpanRef outer =
      tracer.append(0, counted(stage("outer", 0, 100), 0, 1000));
  tracer.append(0, counted(stage("inner", 10, 40, outer), 100, 400));
  tracer.append(2, counted(stage("shard", 0, 90, outer), 5000, 5900));
  tracer.append(0, stage("unprofiled", 100, 120));

  const std::vector<StageCounters> stages = stage_counters(tracer);
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(render_folded("fig4", stages, Tier::kFull),
            "fig4;outer 700\n"
            "fig4;outer;inner 300\n"
            "fig4;w1;outer;shard 900\n");
}

TEST(RenderFolded, FormatsLanesAndSortsLines) {
  std::vector<StageCounters> stages;
  StageCounters driver;
  driver.path = "sim;merge";
  driver.lane = 0;
  driver.self.cycles = 123;
  stages.push_back(driver);
  StageCounters worker;
  worker.path = "task";
  worker.lane = 2;  // pool worker 1
  worker.self.cycles = 456;
  stages.push_back(worker);

  // Hardware/reduced tiers weight by cycles; worker lanes get a "w<N>"
  // frame so per-worker flames separate visually.
  EXPECT_EQ(render_folded("fig4", stages, Tier::kFull),
            "fig4;sim;merge 123\n"
            "fig4;w1;task 456\n");

  // The software tier weights by task-clock nanos instead.
  stages[0].self.task_clock_nanos = 999;
  stages[1].self.task_clock_nanos = 111;
  EXPECT_EQ(render_folded("fig4", stages, Tier::kSoftware),
            "fig4;sim;merge 999\n"
            "fig4;w1;task 111\n");
}

TEST(FoldedFromTracer, RendersClampedSelfWallNanos) {
  // Without counters the folded stacks carry self wall nanos from the same
  // projection: outer 100ms total with a 30ms same-lane child is 70ms
  // self; a worker-lane child (w1) overlaps rather than nests, so it is not
  // subtracted and gets its own frame.
  StageTracer tracer;
  const SpanRef outer = tracer.append(0, stage("outer", 0, 100'000'000));
  tracer.append(0, stage("inner", 10'000'000, 40'000'000, outer));
  tracer.append(2, stage("shard", 0, 90'000'000, outer));
  EXPECT_EQ(folded("fig4", tracer, Tier::kDisabled),
            "fig4;outer 70000000\n"
            "fig4;outer;inner 30000000\n"
            "fig4;w1;outer;shard 90000000\n");
  // A measuring tier renders only counted spans: none here.
  EXPECT_EQ(folded("fig4", tracer, Tier::kSoftware), "");
}

}  // namespace
}  // namespace booterscope::obs::prof
