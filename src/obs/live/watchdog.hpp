// booterscope::obs::live — pipeline stall watchdog.
//
// The long-running shapes on the roadmap (booterscoped, month-scale
// landscape replays) can wedge in ways a post-mortem ledger never shows: a
// pool whose queues hold work no worker drains, or a stage that stops
// making progress while the process stays alive. The watchdog turns both
// into an observable condition *while the run is alive*: producers beat
// named heartbeats (one relaxed atomic store), an attached pool probe
// reports queue depth / busy workers / tasks executed, and check() — driven
// by the ResourceSampler tick or a test's synthetic clock — compares both
// against a deadline. A detected stall opens a StallEvent, increments
// booterscope_live_watchdog_stalls_total and flips healthy() to false (the
// ScrapeServer's /healthz turns 503); recovery closes the event and
// restores health.
//
// The watchdog never reads a clock itself: every check() takes `now` from
// the caller (util::monotonic_nanos() in production, plain numbers in
// tests), so stall semantics are a pure function of the fed timestamps.
// Observer only: it never touches simulation state, so runs are
// byte-identical with or without a watchdog attached (DESIGN.md §13).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.hpp"

namespace booterscope::obs {
class MetricsRegistry;
class StageTracer;
}  // namespace booterscope::obs

namespace booterscope::obs::live {

/// One detected stall: which watch tripped, when, and when (if) the source
/// made progress again. `recovered_nanos == 0` while the stall is open.
struct StallEvent {
  std::string source;
  std::int64_t detected_nanos = 0;
  std::int64_t recovered_nanos = 0;
};

class Watchdog {
 public:
  struct Config {
    /// A heartbeat older than this at check() time is a stall; the pool is
    /// starved when its queues hold work, no worker is busy and the
    /// executed-task count has not advanced for this long.
    std::int64_t stall_deadline_nanos = 2'000'000'000;
  };

  /// `registry` receives booterscope_live_watchdog_stalls_total; pass
  /// nullptr to run metric-free (unit tests).
  Watchdog();  // default Config, no registry
  explicit Watchdog(Config config, MetricsRegistry* registry = nullptr);

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Registers a named heartbeat seeded at `now_nanos`. The producer stores
  /// util::monotonic_nanos() into the returned atomic after each unit of
  /// progress (exec::ThreadPool::attach_heartbeat does exactly that). The
  /// pointer stays valid for the watchdog's lifetime.
  [[nodiscard]] std::atomic<std::int64_t>* register_heartbeat(
      std::string name, std::int64_t now_nanos);

  /// Pool starvation probe: all three must be cheap and thread-safe.
  /// std::function (not a ThreadPool&) keeps obs independent of exec.
  struct PoolProbe {
    std::function<std::size_t()> queue_depth;
    std::function<std::size_t()> busy_workers;
    std::function<std::uint64_t()> tasks_executed;
  };
  void watch_pool(PoolProbe probe);

  /// Evaluates every watch at `now_nanos`. Called from the sampler thread
  /// each tick, or directly with synthetic timestamps in tests.
  void check(std::int64_t now_nanos);

  /// Stops flagging stalls (open ones recover at the next check). The
  /// driver disarms after a run completes so the serve-hold window — when
  /// nothing beats anymore by design — stays healthy. Re-arm for the next
  /// run phase.
  void disarm() noexcept { armed_.store(false, std::memory_order_release); }
  void arm() noexcept { armed_.store(true, std::memory_order_release); }

  /// Lock-free; the ScrapeServer's /healthz reads this per request.
  [[nodiscard]] bool healthy() const noexcept {
    return open_stalls_.load(std::memory_order_acquire) == 0;
  }

  /// Total stalls ever detected (recovered ones included).
  [[nodiscard]] std::uint64_t stalls_detected() const noexcept {
    return stalls_detected_.load(std::memory_order_relaxed);
  }

  /// Snapshot of every stall event, detection order.
  [[nodiscard]] std::vector<StallEvent> stall_events() const;

  /// Appends each stall (and its recovery) as instant records on the
  /// tracer's driver lane, for the Chrome trace. Call from the driver once
  /// the pool is idle, before the trace is written.
  void export_to_timeline(StageTracer& tracer) const;

 private:
  struct Heartbeat {
    std::string name;
    std::unique_ptr<std::atomic<std::int64_t>> last_beat;
    bool stalled = false;
    std::size_t open_event = 0;  // index into events_ while stalled
  };

  void open_stall(const std::string& source, std::int64_t now_nanos)
      BS_REQUIRES(mutex_);
  void close_stall(std::size_t event_index, std::int64_t now_nanos)
      BS_REQUIRES(mutex_);

  const Config config_;
  MetricsRegistry* const registry_;
  std::atomic<bool> armed_{true};
  std::atomic<std::uint64_t> open_stalls_{0};
  std::atomic<std::uint64_t> stalls_detected_{0};

  mutable util::Mutex mutex_;
  std::vector<Heartbeat> heartbeats_ BS_GUARDED_BY(mutex_);
  std::vector<StallEvent> events_ BS_GUARDED_BY(mutex_);
  PoolProbe pool_ BS_GUARDED_BY(mutex_);
  bool pool_watched_ BS_GUARDED_BY(mutex_) = false;
  bool pool_stalled_ BS_GUARDED_BY(mutex_) = false;
  std::size_t pool_open_event_ BS_GUARDED_BY(mutex_) = 0;
  std::int64_t pool_starved_since_ BS_GUARDED_BY(mutex_) = 0;
  std::uint64_t pool_last_tasks_ BS_GUARDED_BY(mutex_) = 0;
};

}  // namespace booterscope::obs::live
