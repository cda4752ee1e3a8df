// booterscope::obs::live — periodic resource sampling into per-run rings.
//
// The roadmap's streaming criterion is *flat RSS at 20k attacks/day*
// (ROADMAP item 1); a single peak-RSS number at exit cannot distinguish
// "flat" from "grew linearly and the run ended". The sampler makes the
// trajectory itself the record: a background thread snapshots resident set
// size (/proc/self/statm, getrusage fallback), CPU time, thread-pool queue
// depth / busy workers and selected MetricsRegistry counters at a fixed
// cadence into a bounded drop-oldest ring. The series is exported three
// ways after the run, all on the sequential surface:
//
//   - "C" counter tracks in the Chrome trace (export_to_timeline), so
//     Perfetto shows memory and queue pressure under the span rows;
//   - the `resource_series` block of BENCH_<id>.json (timestamps,
//     rss_bytes, cpu, least-squares RSS slope) that tools/benchdiff gates;
//   - live gauges (booterscope_live_*) refreshed every tick, so a
//     ScrapeServer /metrics scrape sees current values mid-run.
//
// Each tick also drives an attached Watchdog's check(), so stall detection
// needs no thread of its own. Observer only: the sampler reads the process
// and the registry but never writes simulation state — output bytes are
// identical with the sampler on or off (the determinism contract of
// DESIGN.md §13, pinned by tests/obs/live_determinism_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/annotations.hpp"

namespace booterscope::obs {
class MetricsRegistry;
class StageTracer;
}  // namespace booterscope::obs

namespace booterscope::obs::live {

class Watchdog;

class ResourceSampler {
 public:
  struct Config {
    /// Tick cadence. 25 ms resolves second-scale trends at ~40 samples/s
    /// while keeping the observer cost (one /proc read, one getrusage, a
    /// few relaxed loads) far below any pipeline stage.
    std::int64_t interval_nanos = 25'000'000;
    /// Ring capacity per series; the oldest sample is dropped (and counted)
    /// when full, so a month-scale run holds the most recent window instead
    /// of growing without bound.
    std::size_t ring_capacity = 4096;
    /// Registry counters to track alongside the resource numbers (summed
    /// across labelled series). Empty is fine.
    std::vector<std::string> counter_names;
  };

  /// One tick's snapshot.
  struct Sample {
    std::int64_t at_nanos = 0;
    std::uint64_t rss_bytes = 0;
    double cpu_seconds = 0.0;
    std::uint64_t pool_queue_depth = 0;
    std::uint64_t pool_busy_workers = 0;
    std::vector<std::uint64_t> counter_values;  // parallel to counter_names
  };

  /// Pool probes (std::function, not ThreadPool&, so obs never links exec).
  struct PoolProbe {
    std::function<std::size_t()> queue_depth;
    std::function<std::size_t()> busy_workers;
  };

  /// `registry` is both the counter source and the target of the live
  /// booterscope_live_* gauges; nullptr runs metric-free. The watchdog, if
  /// given, is checked every tick and must outlive the sampler.
  explicit ResourceSampler(Config config, MetricsRegistry* registry = nullptr,
                           PoolProbe pool = PoolProbe(),
                           Watchdog* watchdog = nullptr);
  ~ResourceSampler();

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Takes one immediate sample (so every run has a t0 point) and starts
  /// the background thread. No-op if already running.
  void start();
  /// Stops and joins the thread; idempotent, called by the destructor.
  void stop();
  [[nodiscard]] bool running() const noexcept {
    return thread_.joinable();
  }

  /// One synchronous snapshot from the calling thread — the same code path
  /// the background thread runs. Public so tests sample deterministically
  /// and drivers can pin first/last points.
  void sample_now();

  /// Chronological copy of the ring.
  [[nodiscard]] std::vector<Sample> snapshot() const;
  /// Samples dropped to the ring bound.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t interval_nanos() const noexcept {
    return config_.interval_nanos;
  }
  [[nodiscard]] const std::vector<std::string>& counter_names() const noexcept {
    return config_.counter_names;
  }

  /// Least-squares fit of rss_bytes over time. `points < 2` yields slope 0.
  struct SlopeFit {
    double bytes_per_second = 0.0;
    std::size_t points = 0;
  };
  [[nodiscard]] static SlopeFit fit_rss_slope(
      const std::vector<Sample>& samples);

  /// Appends every series as counter records on the tracer's driver lane
  /// ("C" tracks in the Chrome trace). Call from the driver once the pool
  /// is idle, before the trace is written.
  void export_to_timeline(StageTracer& tracer) const;

  /// Current resident set size: /proc/self/statm where available, else
  /// getrusage peak (documented fallback: peak, not current), else 0.
  [[nodiscard]] static std::uint64_t read_rss_bytes() noexcept;
  /// Process CPU time (user + system) via getrusage; 0.0 where unsupported.
  [[nodiscard]] static double read_cpu_seconds() noexcept;

 private:
  void run();
  void push(Sample sample);

  const Config config_;
  MetricsRegistry* const registry_;
  const PoolProbe pool_;
  Watchdog* const watchdog_;

  mutable util::Mutex mutex_;
  util::CondVar wake_cv_;
  bool stop_requested_ BS_GUARDED_BY(mutex_) = false;
  std::vector<Sample> ring_ BS_GUARDED_BY(mutex_);  // capacity-bounded
  std::size_t ring_head_ BS_GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> dropped_{0};
  // Observer thread: samples /proc and the registry, never executes
  // pipeline work, so it takes no pool slot.
  // bslint:allow(BS005 sampler owns its observer thread)
  std::thread thread_;
};

}  // namespace booterscope::obs::live
