// Unit tests for stage tracing (StageTimer nesting, re-entry accumulation,
// nesting of stages opened on pool workers, flatten/render) and the
// RunManifest JSON document.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/exposition.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace booterscope::obs {
namespace {

TEST(StageTimer, NestsAndAccumulatesOnReentry) {
  StageTracer tracer;
  {
    StageTimer outer(&tracer, "landscape");
    outer.add_items_in(10);
    {
      StageTimer inner(&tracer, "sampler");
      inner.add_items_out(3);
      inner.add_bytes(100);
    }
    {
      StageTimer inner(&tracer, "sampler");  // same name: same node
      inner.add_items_out(4);
      inner.add_bytes(50);
    }
    outer.add_items_out(7);
  }
  const StageNode& root = tracer.root();
  ASSERT_EQ(root.children.size(), 1u);
  const StageNode& landscape = *root.children[0];
  EXPECT_EQ(landscape.name, "landscape");
  EXPECT_EQ(landscape.calls, 1u);
  EXPECT_EQ(landscape.items_in, 10u);
  EXPECT_EQ(landscape.items_out, 7u);
  ASSERT_EQ(landscape.children.size(), 1u);
  const StageNode& sampler = *landscape.children[0];
  EXPECT_EQ(sampler.name, "sampler");
  EXPECT_EQ(sampler.calls, 2u);
  EXPECT_EQ(sampler.items_out, 7u);
  EXPECT_EQ(sampler.bytes, 150u);
  EXPECT_EQ(sampler.parent, &landscape);
}

TEST(StageTimer, RecordsWallTime) {
  StageTracer tracer;
  {
    StageTimer timer(&tracer, "sleep");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(tracer.root().children.size(), 1u);
  EXPECT_GT(tracer.root().children[0]->wall_nanos, 0u);
  EXPECT_GT(tracer.root().children[0]->wall_seconds(), 0.0);
}

TEST(StageTimer, NullTracerIsSafe) {
  StageTimer timer(nullptr, "nothing");
  timer.add_items_in(1);
  timer.add_items_out(1);
  timer.add_bytes(1);
}

TEST(StageTracer, FlattenIsDepthFirstWithDepths) {
  StageTracer tracer;
  {
    StageTimer a(&tracer, "a");
    { StageTimer b(&tracer, "b"); }
  }
  { StageTimer c(&tracer, "c"); }
  const auto flat = tracer.flatten();
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].node->name, "a");
  EXPECT_EQ(flat[0].depth, 0);
  EXPECT_EQ(flat[1].node->name, "b");
  EXPECT_EQ(flat[1].depth, 1);
  EXPECT_EQ(flat[2].node->name, "c");
  EXPECT_EQ(flat[2].depth, 0);
}

TEST(StageTracer, RenderMentionsEveryStage) {
  StageTracer tracer;
  {
    StageTimer a(&tracer, "collect");
    StageTimer b(&tracer, "classify");
  }
  const std::string text = tracer.render();
  EXPECT_NE(text.find("collect"), std::string::npos);
  EXPECT_NE(text.find("classify"), std::string::npos);
  EXPECT_NE(text.find("calls=1"), std::string::npos);
}

/// Per-path totals of a stage tree with the lanes merged: what must not
/// depend on how many workers ran the work.
struct PathTotals {
  int depth = 0;
  std::uint64_t calls = 0;
  std::uint64_t items_in = 0;
  std::uint64_t items_out = 0;
  bool operator==(const PathTotals&) const = default;
};

std::map<std::string, PathTotals> merged_lanes(const StageTracer& tracer) {
  std::map<std::string, PathTotals> out;
  std::vector<std::string> paths;
  for (const StageTracer::FlatStage& flat : tracer.flatten()) {
    const auto depth = static_cast<std::size_t>(flat.depth);
    paths.resize(depth + 1);
    paths[depth] =
        depth == 0 ? flat.node->name : paths[depth - 1] + ";" + flat.node->name;
    PathTotals& totals = out[paths[depth]];
    totals.depth = flat.depth;
    totals.calls += flat.node->calls;
    totals.items_in += flat.node->items_in;
    totals.items_out += flat.node->items_out;
  }
  return out;
}

// A stage opened inside a pool task nests under the stage its submitter
// had open — through parallel_for, through submit, and through a submit
// issued from a worker — with no hand-off code. The tree is the same for
// every pool size once lanes are merged.
TEST(StageTracer, WorkerStagesNestUnderTheSubmittersOpenStage) {
  const auto run = [](std::size_t threads) {
    StageTracer tracer;
    exec::ThreadPool pool(threads);
    {
      StageTimer phase(tracer, "day_shards");
      pool.parallel_for(12, [&tracer](std::size_t i) {
        StageTimer shard(tracer, "day_shard");
        shard.add_items_in(1);
        {
          StageTimer market(tracer, "market");
          market.add_items_in(i);
        }
        shard.add_items_out(10 * i);
      });
    }
    {
      StageTimer phase(tracer, "fan_out");
      pool.submit([&tracer, &pool] {
        StageTimer parent(tracer, "parent");
        pool.submit([&tracer] {
          StageTimer child(tracer, "child");
          child.add_items_out(7);
        });
      });
      pool.wait_idle();
    }
    { StageTimer tail(tracer, "drain"); }
    pool.wait_idle();

    // Worker stages live on worker lanes under the driver's stage; their
    // own children stay on the same lane.
    const StageNode& shards = *tracer.root().children.at(0);
    EXPECT_EQ(shards.name, "day_shards");
    EXPECT_EQ(shards.worker, -1);
    EXPECT_FALSE(shards.children.empty());
    for (const auto& shard : shards.children) {
      EXPECT_EQ(shard->name, "day_shard");
      EXPECT_GE(shard->worker, 0);
      EXPECT_LT(shard->worker, static_cast<int>(threads));
      EXPECT_EQ(shard->parent, &shards);
      EXPECT_EQ(shard->children.at(0)->worker, shard->worker);
    }
    // Task records reach the log, never the tree.
    std::size_t tasks = 0;
    for (std::size_t lane = 1; lane < tracer.lane_count(); ++lane) {
      for (const SpanRecord& record : tracer.spans(lane)) {
        if (record.kind == SpanKind::kTask) ++tasks;
      }
    }
    EXPECT_GE(tasks, 3u);
    EXPECT_TRUE(tracer.spans(0).size() == 3u);
    return merged_lanes(tracer);
  };

  const std::map<std::string, PathTotals> one = run(1);
  const std::map<std::string, PathTotals> expected = {
      {"day_shards", {0, 1, 0, 0}},
      {"day_shards;day_shard", {1, 12, 12, 660}},
      {"day_shards;day_shard;market", {2, 12, 66, 0}},
      {"fan_out", {0, 1, 0, 0}},
      {"fan_out;parent", {1, 1, 0, 0}},
      {"fan_out;parent;child", {2, 1, 0, 7}},
      {"drain", {0, 1, 0, 0}},
  };
  EXPECT_EQ(one, expected);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
}

// Open spans show in the tree (with their items so far) but are only
// timed once they close; a timer on another thread with no carried context
// starts a top-level stage.
TEST(StageTracer, OpenSpansAreVisibleButUntimed) {
  StageTracer tracer;
  StageTimer open(tracer, "open");
  open.add_items_in(3);
  std::thread other([&tracer] { StageTimer t(tracer, "elsewhere"); });
  other.join();
  const StageNode& root = tracer.root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0]->name, "open");
  EXPECT_EQ(root.children[0]->calls, 0u);
  EXPECT_EQ(root.children[0]->wall_nanos, 0u);
  EXPECT_EQ(root.children[0]->items_in, 3u);
  EXPECT_EQ(root.children[1]->name, "elsewhere");
  EXPECT_EQ(root.children[1]->calls, 1u);
}

TEST(RunManifest, JsonCarriesIdentityConfigAndAccounting) {
  StageTracer tracer;
  { StageTimer t(&tracer, "stage_one"); }
  MetricsRegistry registry;
  registry.counter("events_total").add(9);

  RunManifest manifest("unit_test");
  manifest.set_experiment("figX");
  manifest.set_seed(42);
  manifest.add_config("days", std::uint64_t{14});
  manifest.add_config("rate", 0.5);
  manifest.add_config("mode", "replay");
  manifest.add_accounting("offered", 100);
  manifest.add_accounting("dropped", 40);

  const std::string json = manifest.to_json(&tracer, &registry);
  EXPECT_NE(json.find("\"tool\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"experiment\":\"figX\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"git_describe\":"), std::string::npos);
  EXPECT_NE(json.find("\"days\":\"14\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"replay\""), std::string::npos);
  EXPECT_NE(json.find("\"offered\":100"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":40"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage_one\""), std::string::npos);
  EXPECT_NE(json.find("\"events_total\""), std::string::npos);

  ASSERT_EQ(manifest.accounting().size(), 2u);
  EXPECT_EQ(manifest.accounting()[0].first, "offered");
  EXPECT_EQ(manifest.accounting()[0].second, 100u);
}

TEST(RunManifest, NullSectionsAreEmptyNotMissing) {
  const RunManifest manifest("bare");
  const std::string json = manifest.to_json(nullptr, nullptr);
  EXPECT_NE(json.find("\"stages\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"counters\":[]"), std::string::npos);
}

TEST(RunManifest, BuildGitDescribeIsNonEmpty) {
  EXPECT_FALSE(build_git_describe().empty());
}

}  // namespace
}  // namespace booterscope::obs
