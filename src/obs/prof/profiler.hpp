// Stage-scoped hardware-counter profiling across driver + pool lanes.
//
// A Profiler owns one CounterGroup per lane (obs/lane.hpp: lane 0 the
// driver, lane w+1 pool worker w), each opened lazily on its lane's first
// read — a perf group opened with pid=0 counts only its opening thread.
// Attached to a StageTracer, it is read at every StageTimer's open and
// close, and the span log keeps both readings. Attribution is a projection
// of that log: stage_counters() turns the stage tree's summed deltas into
// per-(path, lane) self counters — a node minus its children on the same
// lane, the same self rule as wall time — and folded() renders them as
// flamegraph.pl input.
//
// The ladder verdict is probed once, in the constructor, on the calling
// thread; worker lanes then open directly at the landed tier so every lane
// measures the same fields. When the ladder lands on disabled, read() is a
// no-op and unavailable_reason() carries the explanation the ledger
// records as `prof_unavailable` — never fake zeros.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/lane.hpp"
#include "obs/prof/perf_counters.hpp"

namespace booterscope::obs {
class StageTracer;
}  // namespace booterscope::obs

namespace booterscope::obs::prof {

class Profiler {
 public:
  struct Options {
    /// Degradation-ladder pin; see open_thread_counters(). Benches feed
    /// BOOTERSCOPE_PROF_FORCE through here.
    std::string force;
    /// Test seam for the raw event open.
    CounterGroup::Opener opener;
  };

  explicit Profiler(Options options);
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Hot path, any thread: the cumulative counters of the calling thread's
  /// lane, opening the lane's group on first use. False when the ladder is
  /// disabled, the lane's group failed to open (lanes_failed()), or the
  /// lane is out of range or the read failed (dropped()).
  [[nodiscard]] bool read(CounterSample& out) noexcept;

  [[nodiscard]] bool available() const noexcept {
    return tier_ != Tier::kDisabled;
  }
  [[nodiscard]] Tier tier() const noexcept { return tier_; }
  /// Non-empty exactly when !available(): the ladder's explanation, ledger
  /// bound as `prof_unavailable`.
  [[nodiscard]] const std::string& unavailable_reason() const noexcept {
    return unavailable_reason_;
  }

  /// Lanes whose group failed to open at the probed tier (worker-side
  /// surprises; their spans are uncounted, not zero-counted).
  [[nodiscard]] std::uint64_t lanes_failed() const noexcept {
    return lanes_failed_.load(std::memory_order_relaxed);
  }
  /// Reads refused: out-of-range lane or a failed kernel read.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  // One writer thread per lane; 64-byte alignment keeps lanes from false
  // sharing.
  struct alignas(64) Lane {
    CounterGroup group;
    bool open_attempted = false;
  };

  Tier tier_ = Tier::kDisabled;
  std::string unavailable_reason_;
  CounterGroup::Opener opener_;
  LaneTable<Lane> lanes_;
  std::atomic<std::uint64_t> lanes_failed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Self counters for one nesting path on one lane.
struct StageCounters {
  std::string path;  // ';'-joined stage nesting, e.g. "sim;day_shards"
  int lane = 0;
  std::uint64_t sections = 0;  // closed spans
  CounterSample self;
};

/// The profiled stages of a quiesced tracer, one entry per stage-tree node
/// whose spans carried counter readings, sorted by (path, lane).
[[nodiscard]] std::vector<StageCounters> stage_counters(
    const StageTracer& tracer);

/// Folded-stack rendering: one line per (path, lane), "root;path value\n",
/// sorted by line. The value is cycles on the hardware/reduced tiers and
/// task-clock nanos on the software tier. Worker lanes get a "w<N>" frame
/// after the root.
[[nodiscard]] std::string render_folded(
    std::string_view root, const std::vector<StageCounters>& stages,
    Tier tier);

/// Folded stacks of a quiesced tracer: counter-weighted from
/// stage_counters() when `tier` measured, else the honest wall-clock
/// fallback — every stage's measured self wall nanos (the ledger still
/// records prof_unavailable).
[[nodiscard]] std::string folded(std::string_view root,
                                 const StageTracer& tracer, Tier tier);

}  // namespace booterscope::obs::prof
