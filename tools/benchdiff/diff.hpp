// benchdiff: compares perf ledgers (BENCH_<id>.json, schema
// booterscope-bench-ledger/1, /2 or /3) against committed baselines and
// fails on regression. The differ runs three classes of gate:
//
//   structural — schema/shape problems and config drift (a candidate whose
//     identity config differs from the baseline is not comparable; that is
//     an error, not a silent skip);
//   exact      — `items` is a deterministic output count, so when the
//     config identity matches it must match to the digit on every machine;
//     so must every counter in the baseline's `work` block (deterministic
//     work such as churn days: an algorithmic regression shows there on
//     any machine, noise floor or not);
//   timing     — wall/stage/RSS ratios against per-metric thresholds,
//     applied only when the baseline ran longer than the noise floor
//     (`min_runtime_seconds`), so micro-runs on shared CI boxes cannot
//     flake the gate. `threads` is excluded from identity (it trades wall
//     clock, not bytes) but RSS is only compared thread-count-to-like.
//
// Schema /2 additions: `peak_rss_bytes` may be null when getrusage failed
// (the RSS gate is then muted with a note instead of comparing a fake 0),
// and an optional `resource_series` block carries the live sampler's RSS/
// CPU time series. When both sides ran the sampler long enough, the RSS
// growth slope is gated like the other timing metrics — a leak shows up as
// a slope regression long before the high-water mark doubles.
//
// Schema /3 additions: an optional `hw_counters` block from obs::prof —
// either per-stage/total hardware counters tagged with the degradation
// tier that measured them ("hardware" / "reduced" / "software"), or an
// explicit `prof_unavailable` reason. Two more timing-class gates ride on
// it: IPC regression and cache-miss-rate regression, muted with a note
// whenever either side lacks the counters (unavailable profiling, a tier
// that measured no cycles, or mismatched thread counts) — counters that
// were never measured must never gate.
//
// Library + thin driver split like tools/bslint, so the golden suite in
// tests/tools exercises the engine in-process.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace booterscope::benchdiff {

/// In-memory view of one perf ledger.
struct Ledger {
  std::string path;  // where it was loaded from (reports only)
  std::string bench;
  std::string experiment;
  std::string git_describe;
  std::uint64_t seed = 0;
  std::vector<std::pair<std::string, std::string>> config;
  double wall_seconds = 0.0;
  std::uint64_t items = 0;
  double items_per_second = 0.0;
  /// The optional `work` block: deterministic work counters (market
  /// builds, churn days, ...), gated exactly like `items`. nullopt when
  /// the ledger predates the block.
  std::optional<std::vector<std::pair<std::string, std::uint64_t>>> work;

  struct Stage {
    std::string name;
    int depth = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
    std::uint64_t calls = 0;
  };
  std::vector<Stage> stages;

  std::uint64_t pool_workers = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t pool_steals = 0;
  double busy_seconds_total = 0.0;
  double utilization = 0.0;
  /// nullopt when the ledger recorded null (getrusage failed at capture
  /// time) or the key is absent — distinguishable from a real measurement.
  std::optional<std::uint64_t> peak_rss_bytes;

  /// The live sampler's time series (schema /2, optional). Parallel arrays;
  /// `samples` is the declared count the arrays must agree with.
  struct ResourceSeries {
    double interval_seconds = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t dropped = 0;
    std::vector<double> t_seconds;
    std::vector<std::uint64_t> rss_bytes;
    std::vector<double> cpu_seconds;
    double rss_slope_bytes_per_second = 0.0;
  };
  std::optional<ResourceSeries> resource_series;

  /// Counter values a tier may or may not have measured; each optional is
  /// engaged only when the ledger carried the key (never defaulted to 0).
  struct HwValues {
    std::optional<std::uint64_t> cycles;
    std::optional<std::uint64_t> instructions;
    std::optional<double> ipc;
    std::optional<std::uint64_t> cache_references;
    std::optional<std::uint64_t> cache_misses;
    std::optional<double> cache_miss_rate;
    std::optional<std::uint64_t> branches;
    std::optional<std::uint64_t> branch_misses;
    std::optional<double> branch_miss_rate;
    double task_clock_seconds = 0.0;
  };

  /// The schema-/3 `hw_counters` block. `prof_unavailable` non-empty means
  /// profiling was requested but the degradation ladder bottomed out — the
  /// IPC/cache gates mute with that reason instead of comparing phantoms.
  struct HwCounters {
    std::string source;  // "hardware" | "reduced" | "software"
    std::string prof_unavailable;
    struct Stage {
      std::string path;
      int lane = 0;
      HwValues v;
    };
    std::vector<Stage> stages;
    HwValues total;
    [[nodiscard]] bool available() const noexcept {
      return prof_unavailable.empty();
    }
  };
  std::optional<HwCounters> hw_counters;

  [[nodiscard]] std::optional<std::string> config_value(
      const std::string& key) const;
};

/// Parses ledger JSON; nullopt + reason on malformed documents or a schema
/// other than booterscope-bench-ledger/1, /2 or /3.
[[nodiscard]] std::optional<Ledger> parse_ledger(const std::string& text,
                                                 std::string* error);

/// parse_ledger over a file's contents (records `path` in the result).
[[nodiscard]] std::optional<Ledger> load_ledger(const std::string& path,
                                                std::string* error);

struct DiffOptions {
  /// Noise floor: timing/RSS gates only apply when the *baseline* wall is
  /// at least this many seconds. CI smoke passes a high floor so tiny runs
  /// exercise only the structural and exact gates.
  double min_runtime_seconds = 0.1;
  double wall_ratio = 1.75;   // candidate wall  > baseline wall  * this
  double stage_ratio = 2.5;   // per-stage total > baseline total * this
  double rss_ratio = 2.0;     // peak RSS        > baseline RSS   * this
  /// RSS growth slope gate: candidate slope > max(baseline slope, 0) * this
  /// + a 1 MiB/s allowance. The allowance keeps near-zero baselines from
  /// turning allocator jitter into a failure.
  double rss_slope_ratio = 3.0;
  /// IPC regression gate (schema /3): fail when baseline IPC divided by
  /// candidate IPC exceeds this — the candidate retires noticeably fewer
  /// instructions per cycle. Applies only when both sides measured cycles
  /// (hardware/reduced tiers) with matching thread counts; muted with a
  /// note otherwise.
  double ipc_ratio = 1.25;
  /// Cache-miss-rate gate (schema /3): fail when the candidate's rate
  /// exceeds baseline rate * this + a 0.02 absolute allowance (the
  /// allowance keeps near-zero baseline rates from flagging jitter).
  double cache_miss_ratio = 1.5;
  /// Fail when a baseline has no candidate ledger (CI: every gated bench
  /// must actually have run).
  bool require_all = false;
};

struct Finding {
  enum class Kind { kMalformed, kStructural, kExact, kTiming, kMissing };
  Kind kind = Kind::kStructural;
  std::string experiment;  // or file name when identity is unknown
  std::string metric;
  std::string detail;
};

struct DiffResult {
  std::vector<Finding> findings;
  /// Non-failing observations (skipped timing gates, extra candidates).
  std::vector<std::string> notes;
  int compared = 0;
  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// Internal consistency of one ledger: required keys present, counts and
/// times non-negative, stages well-formed. This is the `--check` mode the
/// benchdiff_tree ctest entry runs over the committed baselines.
[[nodiscard]] std::vector<Finding> check_ledger(const Ledger& ledger);

/// All gates for one baseline/candidate pair.
[[nodiscard]] DiffResult diff_ledgers(const Ledger& baseline,
                                      const Ledger& candidate,
                                      const DiffOptions& options);

/// Pairs every BENCH_*.json under `baseline_dir` with the same-named file
/// under `candidate_dir` and diffs each pair. Missing candidates are
/// findings under require_all, notes otherwise. A candidate with no
/// committed baseline pair is a structural finding (an ungated bench is
/// drift, not decoration), as is an empty or missing baseline directory —
/// each with a distinct message so the fix is obvious.
[[nodiscard]] DiffResult diff_directories(const std::string& baseline_dir,
                                          const std::string& candidate_dir,
                                          const DiffOptions& options);

/// --check over a directory: every BENCH_*.json must parse and pass
/// check_ledger.
[[nodiscard]] DiffResult check_directory(const std::string& dir);

/// Standalone absolute memory-flatness gate for one candidate ledger: its
/// resource series must exist, carry at least two samples (a slope fit
/// needs two points), and show an RSS growth slope at or below
/// `max_slope_bytes_per_second`. This is CI's scale-smoke gate, where the
/// run uses a scaled-up config no committed baseline pairs with — the
/// budget is absolute, not relative.
[[nodiscard]] DiffResult flat_rss_check(const Ledger& ledger,
                                        double max_slope_bytes_per_second);

[[nodiscard]] std::string_view to_string(Finding::Kind kind) noexcept;

/// Human report: one line per finding/note plus a PASS/FAIL trailer.
[[nodiscard]] std::string render_report(const DiffResult& result);

}  // namespace booterscope::benchdiff
