#include "exec/thread_pool.hpp"

#include <chrono>
#include <memory>
#include <string>

#include "util/time.hpp"

namespace booterscope::exec {

namespace {

/// Worker index of the current thread (-1 off-pool), set for the lifetime
/// of the worker loop; submit() routes a worker's tasks to its own deque.
thread_local int tls_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t count = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (count == 0) count = 1;

  obs::MetricsRegistry& registry = obs::metrics();
  registry.gauge("booterscope_exec_pool_workers")
      .set(static_cast<double>(count));
  queues_.reserve(count);
  stats_.reserve(count);
  task_metrics_.reserve(count);
  steal_metrics_.reserve(count);
  busy_metrics_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
    stats_.push_back(std::make_unique<WorkerStats>());
    const obs::Labels labels{{"worker", std::to_string(i)}};
    task_metrics_.push_back(
        &registry.counter("booterscope_exec_tasks_total", labels));
    steal_metrics_.push_back(
        &registry.counter("booterscope_exec_steals_total", labels));
    busy_metrics_.push_back(
        &registry.gauge("booterscope_exec_worker_busy_seconds", labels));
    // The gauge mirrors worker_busy_nanos(i), which starts at zero; an
    // earlier pool's value must not linger on a worker that stays idle.
    busy_metrics_.back()->set(0.0);
  }
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    const util::MutexLock lock(sleep_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const int self = tls_worker_index;
  const std::size_t target =
      self >= 0 && static_cast<std::size_t>(self) < queues_.size()
          ? static_cast<std::size_t>(self)
          : next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    WorkerQueue& queue = *queues_[target];
    const util::MutexLock lock(queue.mutex);
    queue.tasks.push_back(Task{std::move(task), obs::current_span_context()});
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t index, Task& task, bool& stole) {
  stole = false;
  // Own queue first, front (LIFO locality for the owner would be pop_back
  // of locally pushed tasks; FIFO here keeps shard order roughly temporal,
  // which keeps the classifier caches warm for adjacent days).
  {
    WorkerQueue& own = *queues_[index];
    const util::MutexLock lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of a sibling's deque.
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    WorkerQueue& victim = *queues_[(index + offset) % queues_.size()];
    const util::MutexLock lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      stolen_.fetch_add(1, std::memory_order_relaxed);
      steal_metrics_[index]->inc();
      stole = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker_index = static_cast<int>(index);
  // Lane of this worker: w+1 (lane 0 is the driver thread).
  const std::size_t lane = index + 1;
  obs::set_current_lane(static_cast<int>(lane));
  Task task;
  bool stole = false;
  for (;;) {
    if (try_pop(index, task, stole)) {
      // Attribution around the task is lock-free: two monotonic reads, a
      // relaxed add on the worker's own cache line, and (only for a traced
      // submitter) appends to this worker's own lane of its tracer.
      obs::StageTracer* tracer = task.context.tracer;
      const auto log = [&](obs::SpanKind kind, const char* name,
                           std::int64_t begin, std::int64_t end) {
        obs::SpanRecord record;
        record.kind = kind;
        record.name = name;
        record.begin_nanos = begin;
        record.end_nanos = end;
        tracer->append(lane, std::move(record));
      };
      const std::int64_t t0 = util::monotonic_nanos();
      if (stole && tracer != nullptr) {
        log(obs::SpanKind::kInstant, "steal", t0, t0);
      }
      stats_[index]->active.store(true, std::memory_order_relaxed);
      {
        const obs::SpanContextScope scope(task.context);
        task.run();
      }
      stats_[index]->active.store(false, std::memory_order_relaxed);
      const std::int64_t t1 = util::monotonic_nanos();
      task = Task{};
      // Beat the attached liveness heartbeat (if any): each completed task
      // is proof of forward progress for the watchdog.
      if (std::atomic<std::int64_t>* heartbeat =
              heartbeat_.load(std::memory_order_acquire)) {
        heartbeat->store(t1, std::memory_order_relaxed);
      }
      const std::uint64_t busy =
          stats_[index]->busy_nanos.fetch_add(
              static_cast<std::uint64_t>(t1 - t0), std::memory_order_relaxed) +
          static_cast<std::uint64_t>(t1 - t0);
      busy_metrics_[index]->set(static_cast<double>(busy) / 1e9);
      if (tracer != nullptr) log(obs::SpanKind::kTask, "task", t0, t1);
      executed_.fetch_add(1, std::memory_order_relaxed);
      task_metrics_[index]->inc();
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the sleep mutex before notifying so a waiter cannot check
        // pending_ and block between our decrement and the notify.
        { const util::MutexLock lock(sleep_mutex_); }
        idle_cv_.notify_all();
      }
      continue;
    }
    const util::MutexLock lock(sleep_mutex_);
    if (stop_.load(std::memory_order_acquire)) break;
    // Re-check for work racing with the notify; wait otherwise.
    work_cv_.wait_for(sleep_mutex_, std::chrono::milliseconds(50));
    if (stop_.load(std::memory_order_acquire)) break;
  }
  obs::set_current_lane(0);
  tls_worker_index = -1;
}

void ThreadPool::wait_idle() {
  const util::MutexLock lock(sleep_mutex_);
  idle_cv_.wait(sleep_mutex_, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // A shared claim counter gives dynamic load balancing on top of the
  // queues: each of size() loop tasks drains indices until none are left,
  // so one slow shard cannot strand work behind it.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto remaining = std::make_shared<std::atomic<std::size_t>>(n);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;

  const std::size_t loops = std::min(n, size());
  for (std::size_t t = 0; t < loops; ++t) {
    // `n` must be captured by value: a straggler loop task can claim an
    // out-of-range index *after* the final body finished and the caller
    // returned, at which point the caller's frame (and any by-reference
    // capture) is gone. `body` and the done-signal are only touched while
    // at least one body is still outstanding, which the waiter outlives.
    submit([&body, &done_mutex, &done_cv, &done, n, next, remaining] {
      for (;;) {
        const std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
        if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
          const std::lock_guard<std::mutex> lock(done_mutex);
          done = true;
          done_cv.notify_all();
        }
      }
    });
  }
  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return done; });
}

std::size_t ThreadPool::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) {
    const util::MutexLock lock(queue->mutex);
    depth += queue->tasks.size();
  }
  return depth;
}

std::size_t ThreadPool::busy_workers() const noexcept {
  std::size_t busy = 0;
  for (const auto& stats : stats_) {
    if (stats->active.load(std::memory_order_relaxed)) ++busy;
  }
  return busy;
}

}  // namespace booterscope::exec
