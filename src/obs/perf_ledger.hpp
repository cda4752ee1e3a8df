// PerfLedger: the machine-readable performance record of one bench run.
//
// A RunManifest answers "what produced this result"; the perf ledger
// answers "how fast, and where did the time go" in a shape that
// tools/benchdiff can compare across commits: wall time, items/s
// throughput, the per-stage self/total breakdown, pool busy/idle
// utilization, peak RSS, the sampled resource trajectory, and the identity
// key (bench, experiment, seed, config, git describe) that decides which
// baseline a run is comparable to. Every bench writes one `BENCH_<id>.json`
// next to its results.
//
// Schema "booterscope-bench-ledger/3"; additions must stay
// backward-readable (benchdiff ignores unknown keys). Rev 2 over rev 1:
// `peak_rss_bytes` is null when the measurement failed (a 0 there used to
// masquerade as a real reading), and the optional `resource_series` block
// carries the obs::live::ResourceSampler trajectory. Rev 3 over rev 2: the
// optional `hw_counters` block carries per-stage hardware counters from
// obs::prof (or an explicit `prof_unavailable` reason — fields a tier did
// not measure are omitted, never zero-filled).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace booterscope::obs {

class StageTracer;

/// Best-effort peak resident set size of this process in bytes (getrusage
/// ru_maxrss on POSIX), or 0 where the platform offers nothing. Prefer
/// try_peak_rss_bytes(), which keeps "failed" distinguishable from a real
/// zero-byte reading.
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

/// peak_rss_bytes() with failure made explicit: nullopt when getrusage
/// fails or the platform offers nothing. Ledgers serialize nullopt as JSON
/// null so benchdiff mutes its RSS gate instead of comparing against a
/// phantom 0-byte process.
[[nodiscard]] std::optional<std::uint64_t> try_peak_rss_bytes() noexcept;

class PerfLedger {
 public:
  /// `bench` is the emitting binary's name ("bench_fig4", ...).
  explicit PerfLedger(std::string bench) : bench_(std::move(bench)) {}

  void set_experiment(std::string id) { experiment_ = std::move(id); }
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

  /// Identity config, in insertion order. benchdiff treats these as the
  /// comparability key: runs whose configs differ (threads excluded by the
  /// differ, which knows its name) are structural drift, not regressions.
  void add_config(std::string_view key, std::string_view value);
  void add_config(std::string_view key, std::uint64_t value);

  /// Headline numbers. `items` is a deterministic output count (flows,
  /// attacks) — exact-match comparable across machines when the config
  /// identity matches; `wall_nanos` is this machine's time.
  void set_wall_nanos(std::uint64_t nanos) noexcept { wall_nanos_ = nanos; }
  void set_items(std::uint64_t items) noexcept { items_ = items; }

  /// Deterministic work counters (market builds, churn days, ...), in
  /// insertion order: pure functions of the config identity like `items`,
  /// so benchdiff gates each one exactly. Serialized as the `work` block
  /// when any was added.
  void add_work(std::string_view key, std::uint64_t value);

  /// Per-stage breakdown copied from a quiesced tracer. `total` is the
  /// stage's accumulated wall, `self` is StageNode::self_nanos() (total minus
  /// its children on the same lane).
  void set_stages(const StageTracer& tracer);

  /// Pool utilization: per-worker busy nanos against the run's wall time.
  /// Taken as plain numbers (not a ThreadPool&) so obs stays independent
  /// of exec and tests can feed synthetic shapes.
  void set_pool_stats(std::uint64_t tasks, std::uint64_t steals,
                      std::vector<std::uint64_t> busy_nanos_per_worker);

  /// Peak RSS; call capture_peak_rss() at end of run, or set a synthetic
  /// value in tests. Disengaged (the default, or after a failed capture)
  /// serializes as null.
  void set_peak_rss_bytes(std::uint64_t bytes) noexcept { peak_rss_ = bytes; }
  void clear_peak_rss() noexcept { peak_rss_.reset(); }
  void capture_peak_rss() noexcept { peak_rss_ = try_peak_rss_bytes(); }

  /// The sampled resource trajectory of the run (obs::live). The parallel
  /// arrays share indices; `t_seconds` is relative to the first sample.
  struct ResourceSeries {
    std::int64_t interval_nanos = 0;
    std::uint64_t dropped = 0;
    std::vector<double> t_seconds;
    std::vector<std::uint64_t> rss_bytes;
    std::vector<double> cpu_seconds;
    double rss_slope_bytes_per_second = 0.0;
  };
  void set_resource_series(ResourceSeries series) {
    resource_series_ = std::move(series);
    has_resource_series_ = true;
  }
  [[nodiscard]] bool has_resource_series() const noexcept {
    return has_resource_series_;
  }

  /// One stage's (or the whole run's) counter values from obs::prof.
  /// Which fields get serialized is decided by HwCounters::source — a
  /// field the landed tier did not open is omitted from the JSON rather
  /// than emitted as a fake zero.
  struct HwValues {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cache_references = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t branches = 0;
    std::uint64_t branch_misses = 0;
    std::uint64_t task_clock_nanos = 0;
    std::uint64_t page_faults = 0;
    std::uint64_t context_switches = 0;
  };

  /// The `hw_counters` block. Exactly one of the two shapes serializes:
  /// `unavailable_reason` non-empty emits {"prof_unavailable": "<why>"};
  /// otherwise `source` ("hardware" | "reduced" | "software") gates which
  /// value fields appear, with ipc / cache_miss_rate / branch_miss_rate
  /// derived at emission (ipc is exactly instructions/cycles in double
  /// arithmetic — benchdiff --check re-verifies the identity).
  struct HwCounters {
    std::string source;
    std::string unavailable_reason;
    struct Stage {
      std::string path;  // ';'-joined nesting, e.g. "sim;day_shards"
      int lane = 0;      // 0 = driver, w+1 = pool worker w
      std::uint64_t sections = 0;
      HwValues v;
    };
    std::vector<Stage> stages;
    HwValues total;
    std::uint64_t lanes_failed = 0;
    std::uint64_t dropped_events = 0;
  };
  void set_hw_counters(HwCounters hw) {
    hw_counters_ = std::move(hw);
    has_hw_counters_ = true;
  }
  [[nodiscard]] bool has_hw_counters() const noexcept {
    return has_hw_counters_;
  }

  /// Full JSON document (schema booterscope-bench-ledger/3).
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Stage {
    std::string name;
    int depth = 0;
    int worker = -1;
    std::uint64_t total_nanos = 0;
    std::uint64_t self_nanos = 0;
    std::uint64_t calls = 0;
    std::uint64_t items_in = 0;
    std::uint64_t items_out = 0;
    std::uint64_t bytes = 0;
  };

  std::string bench_;
  std::string experiment_;
  std::uint64_t seed_ = 0;
  std::vector<std::pair<std::string, std::string>> config_;
  std::uint64_t wall_nanos_ = 0;
  std::uint64_t items_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> work_;
  std::vector<Stage> stages_;
  std::uint64_t pool_tasks_ = 0;
  std::uint64_t pool_steals_ = 0;
  std::vector<std::uint64_t> busy_nanos_;
  std::optional<std::uint64_t> peak_rss_;
  ResourceSeries resource_series_;
  bool has_resource_series_ = false;
  HwCounters hw_counters_;
  bool has_hw_counters_ = false;
};

}  // namespace booterscope::obs
