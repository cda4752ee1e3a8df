// Stage tracing: one append-only span log, and the views projected from it.
//
// Every StageTimer appends one span to the log of the lane it runs on
// (obs/lane.hpp: lane 0 the driver, lane w+1 pool worker w). Each lane has
// exactly one writer thread, so recording takes no lock on any hot path,
// and a timer works on any thread. A span's parent is the innermost span
// open on its thread — or, on a pool worker, the span the submitting
// thread had open when it called ThreadPool::submit or parallel_for (the
// pool carries that SpanContext into the task). So stages opened inside a
// day shard nest under `day_shards` with no hand-off code at all.
//
// The pool also appends one kTask record per task it runs for a traced
// submitter (and a kInstant per steal); the live plane appends counter
// samples and watchdog stalls. Those feed the Chrome trace only.
//
// Everything else is a projection, read after the pool has gone idle:
//   - root()/flatten()/render(): the aggregate stage tree. Spans with the
//     same parent node, name and lane accumulate into one node;
//   - PerfLedger's `stages` and stages_json() read that tree;
//   - chrome_trace_json(): every record, merged across lanes in one
//     deterministic (begin, lane, append order) sequence — what --timeline
//     writes;
//   - prof::stage_counters()/prof::folded(): hardware counters (each span
//     stores its lane's counter reading when it opens and when it closes)
//     and folded stacks, from the same tree.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lane.hpp"
#include "obs/prof/perf_counters.hpp"
#include "util/annotations.hpp"

namespace booterscope::obs {

class MetricsRegistry;
class StageTracer;

namespace prof {
class Profiler;
}  // namespace prof

/// Address of one record in a tracer's log.
struct SpanRef {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t lane = kNone;
  std::uint32_t index = 0;

  [[nodiscard]] bool valid() const noexcept { return lane != kNone; }
};

enum class SpanKind : std::uint8_t {
  kStage,    // a stage execution: the stage tree's only input
  kTask,     // one pool task execution (Chrome trace only)
  kInstant,  // a point event: a steal, a watchdog stall (Chrome trace only)
  kCounter,  // one point on a counter track (Chrome trace only)
};

/// One log record. Instants and counters use begin_nanos as their
/// timestamp. Timestamps are util::monotonic_nanos() values, or synthetic
/// numbers in tests: the log never reads a clock itself.
struct SpanRecord {
  SpanKind kind = SpanKind::kStage;
  std::string name;
  SpanRef parent;  // stages only; invalid means a top-level stage
  std::int64_t begin_nanos = 0;
  std::int64_t end_nanos = 0;
  bool open = false;  // a StageTimer still running
  std::uint64_t items_in = 0;
  std::uint64_t items_out = 0;
  std::uint64_t bytes = 0;
  double value = 0.0;    // counter samples only
  bool counted = false;  // counters_begin/end hold profiler readings
  prof::CounterSample counters_begin;
  prof::CounterSample counters_end;
};

/// Aggregated numbers for one stage in the tree. Re-entering a stage with
/// the same name under the same parent on the same lane accumulates into
/// one node.
struct StageNode {
  std::string name;
  std::uint64_t wall_nanos = 0;
  std::uint64_t calls = 0;
  std::uint64_t items_in = 0;
  std::uint64_t items_out = 0;
  std::uint64_t bytes = 0;
  /// Pool worker whose lane recorded this stage, or -1 for the driver
  /// lane. Attribution only — never drives behavior.
  int worker = -1;
  /// Summed counter deltas of the node's profiled spans (`counted`).
  bool counted = false;
  prof::CounterSample counters;
  StageNode* parent = nullptr;
  std::vector<std::unique_ptr<StageNode>> children;

  [[nodiscard]] double wall_seconds() const noexcept {
    return static_cast<double>(wall_nanos) / 1e9;
  }

  /// Wall time not spent in children on the same lane. Children on other
  /// lanes (a worker's day_shard under the driver's day_shards) overlap
  /// the parent rather than nest in it, so they are not subtracted. The
  /// one definition of self time behind ledgers and folded stacks.
  [[nodiscard]] std::uint64_t self_nanos() const noexcept {
    std::uint64_t nested = 0;
    for (const auto& child : children) {
      if (child->worker == worker) nested += child->wall_nanos;
    }
    return nested < wall_nanos ? wall_nanos - nested : 0;
  }
};

/// What a thread hands to the work it submits: the tracer and the span it
/// has open. Empty (null tracer) when nothing is being traced.
struct SpanContext {
  StageTracer* tracer = nullptr;
  SpanRef span;
};

/// The calling thread's innermost open span, or the context the pool
/// carried into the running task.
[[nodiscard]] SpanContext current_span_context() noexcept;

/// Installs `context` as the calling thread's for the scope's lifetime —
/// how exec::ThreadPool runs each task under its submitter's context.
class SpanContextScope {
 public:
  explicit SpanContextScope(SpanContext context) noexcept;
  ~SpanContextScope();
  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  SpanContext previous_;
};

class StageTracer {
 public:
  StageTracer();
  ~StageTracer();
  StageTracer(const StageTracer&) = delete;
  StageTracer& operator=(const StageTracer&) = delete;

  // ---- projections: read once the pool is idle -------------------------

  /// The synthetic root; real stages are its descendants. The reference
  /// stays valid until the log changes and root() is called again.
  [[nodiscard]] const StageNode& root() const;

  /// Depth-first flattened view (root excluded), for tabular export.
  struct FlatStage {
    const StageNode* node = nullptr;
    int depth = 0;
  };
  [[nodiscard]] std::vector<FlatStage> flatten() const;

  /// Indented text rendering of the stage tree, one line per stage:
  /// name, wall time, calls, items in/out, bytes (and [wN] attribution).
  [[nodiscard]] std::string render() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}) of every closed
  /// record, loadable in Perfetto or chrome://tracing: "X" events for
  /// stages and tasks, "i" for instants, "C" for counter samples, one
  /// track per lane. The merge is sorted by (begin, lane, append order), a
  /// pure function of the log. Timestamps render in microseconds relative
  /// to `epoch_nanos` (default: the earliest record).
  [[nodiscard]] std::string chrome_trace_json(
      std::optional<std::int64_t> epoch_nanos = std::nullopt) const;
  /// Writes chrome_trace_json() to `path`; false on I/O failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

  // ---- the log ---------------------------------------------------------

  /// Appends one record to `lane` and returns its address (a stage record
  /// can parent later ones). Lane-local like every write: call from the
  /// lane's own thread, or while the pool is idle. The pool's task and
  /// steal records, the live plane's samples and synthetic test spans all
  /// enter through here. An out-of-range lane counts in dropped().
  SpanRef append(std::size_t lane, SpanRecord record);

  /// Samples every counter and gauge whose name starts with `prefix` into
  /// counter records on lane 0 at `at_nanos`. Driver thread only.
  void sample_counters(const MetricsRegistry& registry, std::string_view prefix,
                       std::int64_t at_nanos);

  /// The records of one lane, in append order (empty if never used).
  [[nodiscard]] std::span<const SpanRecord> spans(std::size_t lane) const;
  /// One past the highest lane that recorded anything.
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  /// Records refused because their lane was out of range.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Optional hardware-counter profiler: when set, every StageTimer span
  /// stores its lane's counter reading at open and at close. Not owned; set
  /// before the run and keep it alive until the pool is idle.
  void set_profiler(prof::Profiler* profiler) noexcept {
    profiler_ = profiler;
  }
  [[nodiscard]] prof::Profiler* profiler() const noexcept { return profiler_; }

 private:
  friend class StageTimer;

  // One writer thread per lane; 64-byte alignment keeps lanes from false
  // sharing.
  struct alignas(64) Lane {
    std::vector<SpanRecord> spans;
    std::uint64_t closes = 0;  // with spans.size(), the projection's version
    // Two threads writing one lane break the single-writer contract (for
    // example two pools feeding one tracer); the tripwire aborts instead.
    util::ConcurrencyGuard guard;
  };

  [[nodiscard]] std::uint64_t log_version() const noexcept;
  [[nodiscard]] std::unique_ptr<StageNode> project() const;

  LaneTable<Lane> lanes_;
  std::atomic<std::uint64_t> dropped_{0};
  prof::Profiler* profiler_ = nullptr;
  mutable std::unique_ptr<StageNode> root_;
  mutable std::uint64_t root_version_ = 0;
  mutable util::ConcurrencyGuard read_guard_;
};

/// RAII span over one stage execution, on the calling thread's lane.
/// Null-tracer-safe so instrumented library code can take an optional
/// `StageTracer*` and stay zero-cost when nobody is watching. A timer
/// belongs to the thread that opened it.
class StageTimer {
 public:
  StageTimer(StageTracer* tracer, std::string_view name);
  StageTimer(StageTracer& tracer, std::string_view name)
      : StageTimer(&tracer, name) {}
  ~StageTimer();

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void add_items_in(std::uint64_t n) noexcept {
    if (lane_ != nullptr) lane_->spans[index_].items_in += n;
  }
  void add_items_out(std::uint64_t n) noexcept {
    if (lane_ != nullptr) lane_->spans[index_].items_out += n;
  }
  void add_bytes(std::uint64_t n) noexcept {
    if (lane_ != nullptr) lane_->spans[index_].bytes += n;
  }

 private:
  StageTracer* tracer_;
  StageTracer::Lane* lane_ = nullptr;
  std::uint32_t index_ = 0;
  SpanContext previous_;
};

}  // namespace booterscope::obs
