#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace booterscope::exec {
namespace {

TEST(ThreadPool, SizeDefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
  ThreadPool fixed(3);
  EXPECT_EQ(fixed.size(), 3u);
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_GE(pool.tasks_executed(), 100u);
}

TEST(ThreadPool, WaitIdleWithNoWorkReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, ParallelForResultsIndependentOfPoolSize) {
  // The determinism contract: index-addressed slots filled from
  // split-by-index state are identical for every pool size.
  const auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> slots(257, 0);
    pool.parallel_for(slots.size(), [&](std::size_t i) {
      std::uint64_t h = i * 0x9e3779b97f4a7c15ULL + 1;
      for (int k = 0; k < 64; ++k) h ^= h >> 13, h *= 0xff51afd7ed558ccdULL;
      slots[i] = h;
    });
    return slots;
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

TEST(ThreadPool, NestedParallelForBodiesMaySubmit) {
  // Bodies run on pool workers; submissions from a worker go to its own
  // deque and still complete before wait_idle returns.
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.submit([&inner] { inner.fetch_add(1, std::memory_order_relaxed); });
  });
  pool.wait_idle();
  EXPECT_EQ(inner.load(), 8);
}

TEST(ThreadPool, WorkerBusyNanosAccumulateAcrossTasks) {
  ThreadPool pool(2);
  std::uint64_t before = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    before += pool.worker_busy_nanos(w);
  }
  EXPECT_EQ(before, 0u) << "busy time before any task ran";
  pool.parallel_for(16, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  pool.wait_idle();
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    total += pool.worker_busy_nanos(w);
  }
  // 16 tasks of >=1ms spread over 2 workers: at least 16ms of busy time.
  EXPECT_GE(total, 16'000'000u);
}

#ifndef BOOTERSCOPE_NO_METRICS
TEST(ThreadPool, PerWorkerBusyGaugesAreRegisteredAndUpdated) {
  // Each worker's gauge mirrors this pool's busy time exactly — also for a
  // worker that ran nothing, whatever an earlier pool left in the registry.
  ThreadPool pool(2);
  pool.parallel_for(8, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  pool.wait_idle();
  std::uint64_t busy_total = 0;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    const double gauge = obs::metrics()
                             .gauge("booterscope_exec_worker_busy_seconds",
                                    {{"worker", std::to_string(w)}})
                             .value();
    EXPECT_EQ(gauge, static_cast<double>(pool.worker_busy_nanos(w)) / 1e9)
        << "worker " << w;
    busy_total += pool.worker_busy_nanos(w);
  }
  EXPECT_GE(busy_total, 8'000'000u) << "8 tasks of >=1ms";
}
#endif

// A traced submitter (one with a stage open) gets one task record per
// execution on the executing worker's lane, plus a steal instant per
// steal; untraced submissions record nothing, and tasks never enter the
// stage tree.
TEST(ThreadPool, TracedSubmitterGetsOneTaskRecordPerExecution) {
  obs::StageTracer tracer;
  ThreadPool pool(4);
  constexpr int kTasks = 50;
  std::atomic<int> ran{0};
  {
    obs::StageTimer submitter(tracer, "submit");
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
  }
  pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kTasks + 1);

  ASSERT_EQ(tracer.spans(0).size(), 1u) << "driver lane holds the stage only";
  EXPECT_LE(tracer.lane_count(), 5u);
  std::size_t task_records = 0;
  for (std::size_t lane = 1; lane < tracer.lane_count(); ++lane) {
    for (const obs::SpanRecord& record : tracer.spans(lane)) {
      if (record.kind == obs::SpanKind::kTask) {
        EXPECT_EQ(record.name, "task");
        EXPECT_LE(record.begin_nanos, record.end_nanos);
        ++task_records;
      } else {
        EXPECT_EQ(record.kind, obs::SpanKind::kInstant);
        EXPECT_EQ(record.name, "steal");
      }
    }
  }
  EXPECT_EQ(task_records, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(tracer.root().children.size(), 1u);
  EXPECT_TRUE(tracer.root().children[0]->children.empty());
}

TEST(ThreadPool, StealCountersAccumulate) {
  ThreadPool pool(4);
  // Plenty of tiny tasks from off-pool round-robin: the executed counter
  // must equal submissions; steals are workload dependent but readable.
  constexpr int kTasks = 500;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(pool.tasks_executed(), static_cast<std::uint64_t>(kTasks));
  EXPECT_LE(pool.steals(), pool.tasks_executed());
}

}  // namespace
}  // namespace booterscope::exec
