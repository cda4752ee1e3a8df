// booterscope::exec — deterministic parallel execution primitives.
//
// ThreadPool is a work-stealing pool sized for the sim→flow→analysis
// pipeline: each worker owns a deque it pushes/pops locally, and raids the
// back of its siblings' deques when it runs dry. Determinism is NOT the
// pool's job — callers get it by (a) deriving per-task RNG streams from the
// master seed with util::Rng::split (never from thread identity) and (b)
// writing results into index-addressed slots that are merged in task order.
// Under that contract every thread count, including 1, produces identical
// bytes; DESIGN.md §9 spells out the model.
//
// Observability: each worker registers labelled series in the global
// registry — booterscope_exec_tasks_total{worker=...},
// booterscope_exec_steals_total{worker=...} and the utilization gauge
// booterscope_exec_worker_busy_seconds{worker=...} — so a run manifest
// shows how work actually spread across the pool. Each task runs under the
// obs::SpanContext its submitter had (the stage it had open), so stages
// opened inside a task nest under that stage; when the submitter was
// traced, the worker also appends a task record (and a steal instant) to
// its own lane of the tracer's log — single-writer, so the hot path stays
// lock-free whether or not anyone is watching.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/annotations.hpp"

namespace booterscope::exec {

class ThreadPool {
 public:
  /// `threads` == 0 means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues one task, to run under the caller's current SpanContext.
  /// Tasks submitted from a pool worker go to that worker's own deque
  /// (depth-first, cache-friendly); off-pool submissions are spread
  /// round-robin. A traced submitter's tracer must outlive the task: wait
  /// for wait_idle() before destroying it.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Must be called from
  /// off-pool (a worker waiting on its siblings would deadlock the pool).
  void wait_idle();

  /// Runs body(i) for every i in [0, n), spread across the workers, and
  /// blocks until all are done. The calling thread only coordinates; the
  /// pool executes. Safe for any n, including 0. Must be called off-pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Total tasks executed / steals performed since construction. Kept in
  /// plain atomics (not the metrics registry) so they stay observable under
  /// BOOTERSCOPE_NO_METRICS builds.
  [[nodiscard]] std::uint64_t tasks_executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t steals() const noexcept {
    return stolen_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds worker `index` spent executing tasks since construction.
  /// Plain atomics like tasks/steals, so utilization stays observable under
  /// BOOTERSCOPE_NO_METRICS; divide by a run's wall time for utilization.
  [[nodiscard]] std::uint64_t worker_busy_nanos(std::size_t index) const noexcept {
    return stats_[index]->busy_nanos.load(std::memory_order_relaxed);
  }

  /// Tasks currently sitting in the worker deques (not yet started). Takes
  /// each queue's mutex briefly — an observer-cadence probe (the live
  /// sampler's tick), not a hot-path call.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Workers currently inside a task body. Relaxed reads of per-worker
  /// flags; momentary by nature, meant for sampling.
  [[nodiscard]] std::size_t busy_workers() const noexcept;

  /// Attaches a liveness heartbeat (obs::live::Watchdog::register_heartbeat
  /// hands one out): every worker stores the task-completion timestamp into
  /// it, so a watchdog can tell a draining pool from a wedged one. Attach
  /// while the pool is idle and keep the heartbeat alive until after the
  /// last wait_idle(); detach with nullptr.
  void attach_heartbeat(std::atomic<std::int64_t>* heartbeat) noexcept {
    heartbeat_.store(heartbeat, std::memory_order_release);
  }

 private:
  struct Task {
    std::function<void()> run;
    obs::SpanContext context;  // the submitter's, installed while it runs
  };

  struct WorkerQueue {
    util::Mutex mutex;
    std::deque<Task> tasks BS_GUARDED_BY(mutex);
  };

  /// Per-worker accounting on its own cache line: only the owning worker
  /// writes, readers (ledgers, gauges) sum with relaxed loads.
  struct alignas(64) WorkerStats {
    std::atomic<std::uint64_t> busy_nanos{0};
    std::atomic<bool> active{false};  // inside a task body right now
  };

  void worker_loop(std::size_t index);
  [[nodiscard]] bool try_pop(std::size_t index, Task& task, bool& stole);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::unique_ptr<WorkerStats>> stats_;  // per worker
  std::vector<std::thread> workers_;
  std::vector<obs::Counter*> task_metrics_;   // per worker
  std::vector<obs::Counter*> steal_metrics_;  // per worker
  std::vector<obs::Gauge*> busy_metrics_;     // per worker, busy seconds
  std::atomic<std::atomic<std::int64_t>*> heartbeat_{nullptr};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  // stop_ is atomic (read outside the lock on the hot loop) but is only
  // *written* under sleep_mutex_ so the write and notify pair atomically
  // with a sleeper's wait check.
  std::atomic<bool> stop_{false};
  util::Mutex sleep_mutex_;
  util::CondVar work_cv_;
  util::CondVar idle_cv_;
};

}  // namespace booterscope::exec
