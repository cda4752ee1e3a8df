#include "diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "json_mini.hpp"

namespace booterscope::benchdiff {

namespace {

// /1 ledgers predate the live telemetry plane: no resource_series, RSS
// always a number. /2 adds the optional series and nullable RSS. /3 adds
// the optional hw_counters block (obs::prof). All three stay accepted so
// committed older baselines keep gating until regenerated.
constexpr std::string_view kSchemaV1 = "booterscope-bench-ledger/1";
constexpr std::string_view kSchemaV2 = "booterscope-bench-ledger/2";
constexpr std::string_view kSchemaV3 = "booterscope-bench-ledger/3";

[[nodiscard]] std::string format_seconds(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.3fs", seconds);
  return buffer;
}

[[nodiscard]] std::string format_ratio(double ratio) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2fx", ratio);
  return buffer;
}

void add_finding(DiffResult& result, Finding::Kind kind,
                 std::string experiment, std::string metric,
                 std::string detail) {
  result.findings.push_back(Finding{kind, std::move(experiment),
                                    std::move(metric), std::move(detail)});
}

/// The identity an experiment must share with its baseline to be
/// comparable. `threads` trades wall clock for parallelism without
/// changing output bytes, so it is not identity; neither are `stream` /
/// `stream_batch` — the streaming engine produces byte-identical output
/// (DESIGN.md §14), so the engine choice only trades memory and wall.
[[nodiscard]] bool identity_key(const std::string& key) {
  return key != "threads" && key != "stream" && key != "stream_batch";
}

[[nodiscard]] const Ledger::Stage* find_stage(const Ledger& ledger,
                                              const Ledger::Stage& like) {
  for (const Ledger::Stage& stage : ledger.stages) {
    if (stage.name == like.name && stage.depth == like.depth) return &stage;
  }
  return nullptr;
}

}  // namespace

std::optional<std::string> Ledger::config_value(const std::string& key) const {
  for (const auto& [k, v] : config) {
    if (k == key) return v;
  }
  return std::nullopt;
}

std::optional<Ledger> parse_ledger(const std::string& text,
                                   std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> doc = parse_json(text, &parse_error);
  if (!doc) {
    if (error != nullptr) *error = "invalid JSON: " + parse_error;
    return std::nullopt;
  }
  if (doc->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "document is not an object";
    return std::nullopt;
  }
  const std::string schema = doc->string_or("schema", "");
  if (schema != kSchemaV1 && schema != kSchemaV2 && schema != kSchemaV3) {
    if (error != nullptr) {
      *error = "unsupported schema '" + schema + "' (want '" +
               std::string(kSchemaV1) + "', '" + std::string(kSchemaV2) +
               "' or '" + std::string(kSchemaV3) + "')";
    }
    return std::nullopt;
  }

  Ledger ledger;
  ledger.bench = doc->string_or("bench", "");
  ledger.experiment = doc->string_or("experiment", "");
  ledger.git_describe = doc->string_or("git_describe", "unknown");
  ledger.seed = static_cast<std::uint64_t>(doc->number_or("seed", 0.0));
  if (const JsonValue* config = doc->find("config");
      config != nullptr && config->kind == JsonValue::Kind::kObject) {
    for (const auto& [key, value] : config->object) {
      ledger.config.emplace_back(
          key, value.kind == JsonValue::Kind::kString
                   ? value.string
                   : std::to_string(value.number));
    }
  }
  ledger.wall_seconds = doc->number_or("wall_seconds", 0.0);
  ledger.items = static_cast<std::uint64_t>(doc->number_or("items", 0.0));
  ledger.items_per_second = doc->number_or("items_per_second", 0.0);
  if (const JsonValue* work = doc->find("work");
      work != nullptr && work->kind == JsonValue::Kind::kObject) {
    ledger.work.emplace();
    for (const auto& [key, value] : work->object) {
      ledger.work->emplace_back(key,
                                static_cast<std::uint64_t>(value.number));
    }
  }
  if (const JsonValue* stages = doc->find("stages");
      stages != nullptr && stages->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& entry : stages->array) {
      if (entry.kind != JsonValue::Kind::kObject) continue;
      Ledger::Stage stage;
      stage.name = entry.string_or("name", "");
      stage.depth = static_cast<int>(entry.number_or("depth", 0.0));
      stage.total_seconds = entry.number_or("total_seconds", 0.0);
      stage.self_seconds = entry.number_or("self_seconds", 0.0);
      stage.calls = static_cast<std::uint64_t>(entry.number_or("calls", 0.0));
      ledger.stages.push_back(std::move(stage));
    }
  }
  if (const JsonValue* pool = doc->find("pool");
      pool != nullptr && pool->kind == JsonValue::Kind::kObject) {
    ledger.pool_workers =
        static_cast<std::uint64_t>(pool->number_or("workers", 0.0));
    ledger.pool_tasks =
        static_cast<std::uint64_t>(pool->number_or("tasks", 0.0));
    ledger.pool_steals =
        static_cast<std::uint64_t>(pool->number_or("steals", 0.0));
    ledger.busy_seconds_total = pool->number_or("busy_seconds_total", 0.0);
    ledger.utilization = pool->number_or("utilization", 0.0);
  }
  // peak_rss_bytes: number => measurement; null or absent => nullopt. A
  // serialized null means the bench could not read its own RSS — the gate
  // must mute rather than compare against a fabricated zero.
  if (const JsonValue* rss = doc->find("peak_rss_bytes");
      rss != nullptr && rss->kind == JsonValue::Kind::kNumber) {
    ledger.peak_rss_bytes = static_cast<std::uint64_t>(rss->number);
  }
  if (const JsonValue* series = doc->find("resource_series");
      series != nullptr && series->kind == JsonValue::Kind::kObject) {
    Ledger::ResourceSeries parsed;
    parsed.interval_seconds = series->number_or("interval_seconds", 0.0);
    parsed.samples =
        static_cast<std::uint64_t>(series->number_or("samples", 0.0));
    parsed.dropped =
        static_cast<std::uint64_t>(series->number_or("dropped", 0.0));
    const auto numbers = [&](std::string_view key, auto& out) {
      if (const JsonValue* arr = series->find(key);
          arr != nullptr && arr->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& v : arr->array) {
          if (v.kind != JsonValue::Kind::kNumber) continue;
          using Elem = typename std::decay_t<decltype(out)>::value_type;
          out.push_back(static_cast<Elem>(v.number));
        }
      }
    };
    numbers("t_seconds", parsed.t_seconds);
    numbers("rss_bytes", parsed.rss_bytes);
    numbers("cpu_seconds", parsed.cpu_seconds);
    parsed.rss_slope_bytes_per_second =
        series->number_or("rss_slope_bytes_per_second", 0.0);
    ledger.resource_series = std::move(parsed);
  }
  if (const JsonValue* hw = doc->find("hw_counters");
      hw != nullptr && hw->kind == JsonValue::Kind::kObject) {
    Ledger::HwCounters parsed;
    parsed.prof_unavailable = hw->string_or("prof_unavailable", "");
    if (parsed.prof_unavailable.empty()) {
      parsed.source = hw->string_or("source", "");
      // Optionals engage only on present keys: a tier that never measured
      // cycles must stay distinguishable from one that measured zero.
      const auto values = [](const JsonValue& node, Ledger::HwValues& out) {
        const auto opt_u64 = [&](std::string_view key,
                                 std::optional<std::uint64_t>& slot) {
          if (const JsonValue* v = node.find(key);
              v != nullptr && v->kind == JsonValue::Kind::kNumber) {
            slot = static_cast<std::uint64_t>(v->number);
          }
        };
        const auto opt_double = [&](std::string_view key,
                                    std::optional<double>& slot) {
          if (const JsonValue* v = node.find(key);
              v != nullptr && v->kind == JsonValue::Kind::kNumber) {
            slot = v->number;
          }
        };
        opt_u64("cycles", out.cycles);
        opt_u64("instructions", out.instructions);
        opt_double("ipc", out.ipc);
        opt_u64("cache_references", out.cache_references);
        opt_u64("cache_misses", out.cache_misses);
        opt_double("cache_miss_rate", out.cache_miss_rate);
        opt_u64("branches", out.branches);
        opt_u64("branch_misses", out.branch_misses);
        opt_double("branch_miss_rate", out.branch_miss_rate);
        out.task_clock_seconds = node.number_or("task_clock_seconds", 0.0);
      };
      if (const JsonValue* stages = hw->find("stages");
          stages != nullptr && stages->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& entry : stages->array) {
          if (entry.kind != JsonValue::Kind::kObject) continue;
          Ledger::HwCounters::Stage stage;
          stage.path = entry.string_or("path", "");
          stage.lane = static_cast<int>(entry.number_or("lane", 0.0));
          values(entry, stage.v);
          parsed.stages.push_back(std::move(stage));
        }
      }
      if (const JsonValue* total = hw->find("total");
          total != nullptr && total->kind == JsonValue::Kind::kObject) {
        values(*total, parsed.total);
      }
    }
    ledger.hw_counters = std::move(parsed);
  }
  return ledger;
}

std::optional<Ledger> load_ledger(const std::string& path,
                                  std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::optional<Ledger> ledger = parse_ledger(text.str(), error);
  if (ledger) ledger->path = path;
  return ledger;
}

std::vector<Finding> check_ledger(const Ledger& ledger) {
  std::vector<Finding> findings;
  const std::string id =
      !ledger.experiment.empty()
          ? ledger.experiment
          : (!ledger.path.empty() ? ledger.path : std::string("<ledger>"));
  const auto flag = [&](const std::string& metric, const std::string& detail) {
    findings.push_back(
        Finding{Finding::Kind::kStructural, id, metric, detail});
  };

  if (ledger.bench.empty()) flag("bench", "missing bench name");
  if (ledger.experiment.empty()) flag("experiment", "missing experiment id");
  if (ledger.config.empty()) flag("config", "empty config identity");
  if (!(ledger.wall_seconds >= 0.0)) {
    flag("wall_seconds", "negative or NaN wall time");
  }
  if (!(ledger.items_per_second >= 0.0)) {
    flag("items_per_second", "negative or NaN throughput");
  }
  for (const Ledger::Stage& stage : ledger.stages) {
    if (stage.name.empty()) {
      flag("stages", "stage with empty name");
      continue;
    }
    if (!(stage.total_seconds >= 0.0) || !(stage.self_seconds >= 0.0)) {
      flag("stages", "stage '" + stage.name + "' has negative time");
    }
    if (stage.self_seconds > stage.total_seconds + 1e-9) {
      flag("stages",
           "stage '" + stage.name + "' self time exceeds total time");
    }
  }
  if (ledger.utilization < 0.0) flag("pool", "negative utilization");
  // Pool tasks run inside the timed wall, so busy time cannot exceed
  // workers x wall; a ratio above 1 means work ran outside the wall and
  // the ledger's per-worker busy figures overstate the timed run.
  if (ledger.utilization > 1.0 + 1e-9) {
    flag("pool", "utilization " + std::to_string(ledger.utilization) +
                     " exceeds 1: pool busy time was counted outside the "
                     "timed wall");
  }
  if (ledger.resource_series) {
    const Ledger::ResourceSeries& series = *ledger.resource_series;
    const std::uint64_t n = series.samples;
    if (series.t_seconds.size() != n || series.rss_bytes.size() != n ||
        series.cpu_seconds.size() != n) {
      flag("resource_series",
           "parallel arrays disagree with declared sample count " +
               std::to_string(n) + " (t=" +
               std::to_string(series.t_seconds.size()) + ", rss=" +
               std::to_string(series.rss_bytes.size()) + ", cpu=" +
               std::to_string(series.cpu_seconds.size()) + ")");
    }
    for (std::size_t i = 1; i < series.t_seconds.size(); ++i) {
      if (!(series.t_seconds[i] >= series.t_seconds[i - 1])) {
        flag("resource_series",
             "t_seconds not monotonically non-decreasing at index " +
                 std::to_string(i));
        break;
      }
    }
    if (!std::isfinite(series.rss_slope_bytes_per_second)) {
      flag("resource_series", "rss_slope_bytes_per_second is not finite");
    }
    if (!(series.interval_seconds >= 0.0)) {
      flag("resource_series", "negative or NaN interval_seconds");
    }
  }
  if (ledger.hw_counters && ledger.hw_counters->available()) {
    const Ledger::HwCounters& hw = *ledger.hw_counters;
    if (hw.source != "hardware" && hw.source != "reduced" &&
        hw.source != "software") {
      flag("hw_counters", "unknown counter source '" + hw.source +
                              "' (want hardware, reduced or software)");
    }
    // The emitter derives the ratios from the raw counts in the same
    // double arithmetic; re-deriving them here catches hand-edited or
    // corrupted ledgers. ±1e-9 absorbs nothing but representation noise.
    const auto check_values = [&](const Ledger::HwValues& v,
                                  const std::string& where) {
      if (v.cycles && v.instructions && v.ipc && *v.cycles > 0) {
        const double expect = static_cast<double>(*v.instructions) /
                              static_cast<double>(*v.cycles);
        if (std::fabs(*v.ipc - expect) > 1e-9) {
          flag("hw_counters", where + ": ipc " + std::to_string(*v.ipc) +
                                  " violates instructions/cycles identity (" +
                                  std::to_string(expect) + ")");
        }
      }
      if (v.cache_references && v.cache_misses && v.cache_miss_rate &&
          *v.cache_references > 0) {
        const double expect = static_cast<double>(*v.cache_misses) /
                              static_cast<double>(*v.cache_references);
        if (std::fabs(*v.cache_miss_rate - expect) > 1e-9) {
          flag("hw_counters",
               where + ": cache_miss_rate violates misses/references "
                       "identity");
        }
      }
      if (v.cache_miss_rate &&
          (*v.cache_miss_rate < 0.0 || *v.cache_miss_rate > 1.0)) {
        flag("hw_counters", where + ": cache_miss_rate outside [0, 1]");
      }
      if (!(v.task_clock_seconds >= 0.0)) {
        flag("hw_counters", where + ": negative or NaN task_clock_seconds");
      }
    };
    check_values(hw.total, "total");
    for (const Ledger::HwCounters::Stage& stage : hw.stages) {
      if (stage.path.empty()) {
        flag("hw_counters", "stage with empty path");
        continue;
      }
      check_values(stage.v, "stage '" + stage.path + "'");
    }
  }
  return findings;
}

DiffResult diff_ledgers(const Ledger& baseline, const Ledger& candidate,
                        const DiffOptions& options) {
  DiffResult result;
  result.compared = 1;
  const std::string id = !baseline.experiment.empty()
                             ? baseline.experiment
                             : baseline.path;

  // Structural: the pair must describe the same experiment with the same
  // identity config, or no other gate means anything.
  if (baseline.experiment != candidate.experiment) {
    add_finding(result, Finding::Kind::kStructural, id, "experiment",
                "baseline '" + baseline.experiment + "' vs candidate '" +
                    candidate.experiment + "'");
    return result;
  }
  bool config_ok = true;
  for (const auto& [key, value] : baseline.config) {
    if (!identity_key(key)) continue;
    const std::optional<std::string> other = candidate.config_value(key);
    if (!other) {
      add_finding(result, Finding::Kind::kStructural, id, "config." + key,
                  "missing in candidate (baseline: '" + value + "')");
      config_ok = false;
    } else if (*other != value) {
      add_finding(result, Finding::Kind::kStructural, id, "config." + key,
                  "config drift: baseline '" + value + "' vs candidate '" +
                      *other + "'");
      config_ok = false;
    }
  }
  for (const auto& [key, value] : candidate.config) {
    if (!identity_key(key)) continue;
    if (!baseline.config_value(key)) {
      add_finding(result, Finding::Kind::kStructural, id, "config." + key,
                  "missing in baseline (candidate: '" + value + "')");
      config_ok = false;
    }
  }
  if (baseline.seed != candidate.seed) {
    add_finding(result, Finding::Kind::kStructural, id, "seed",
                "baseline " + std::to_string(baseline.seed) + " vs candidate " +
                    std::to_string(candidate.seed));
    config_ok = false;
  }
  if (!config_ok) return result;  // not comparable; skip the other gates

  // Exact: identical config identity => identical deterministic output,
  // on any machine and any thread count.
  if (baseline.items != candidate.items) {
    add_finding(result, Finding::Kind::kExact, id, "items",
                "deterministic output drift: baseline " +
                    std::to_string(baseline.items) + " vs candidate " +
                    std::to_string(candidate.items));
  }
  if (baseline.work) {
    const auto find = [&](const std::string& key)
        -> std::optional<std::uint64_t> {
      if (!candidate.work) return std::nullopt;
      for (const auto& [name, value] : *candidate.work) {
        if (name == key) return value;
      }
      return std::nullopt;
    };
    for (const auto& [key, value] : *baseline.work) {
      const std::optional<std::uint64_t> other = find(key);
      if (!other) {
        add_finding(result, Finding::Kind::kStructural, id, "work." + key,
                    "missing in candidate (baseline: " +
                        std::to_string(value) + ")");
      } else if (*other != value) {
        add_finding(result, Finding::Kind::kExact, id, "work." + key,
                    "deterministic work drift: baseline " +
                        std::to_string(value) + " vs candidate " +
                        std::to_string(*other));
      }
    }
  }

  // Structural: a baseline recorded with the live sampler expects the
  // candidate to run it too — losing the series silently would un-gate the
  // slope check. The reverse (candidate gained a series) is progress, not
  // drift.
  if (baseline.resource_series && !candidate.resource_series) {
    add_finding(result, Finding::Kind::kStructural, id, "resource_series",
                "baseline has a resource series but candidate has none "
                "(run with --sample-interval-ms > 0)");
  }

  // Timing: only above the noise floor.
  if (baseline.wall_seconds < options.min_runtime_seconds) {
    result.notes.push_back(
        id + ": timing gates skipped (baseline wall " +
        format_seconds(baseline.wall_seconds) + " < noise floor " +
        format_seconds(options.min_runtime_seconds) + ")");
    return result;
  }
  if (candidate.wall_seconds >
      baseline.wall_seconds * options.wall_ratio) {
    add_finding(result, Finding::Kind::kTiming, id, "wall_seconds",
                "wall regression: " + format_seconds(baseline.wall_seconds) +
                    " -> " + format_seconds(candidate.wall_seconds) + " (" +
                    format_ratio(candidate.wall_seconds /
                                 baseline.wall_seconds) +
                    ", threshold " + format_ratio(options.wall_ratio) + ")");
  }
  for (const Ledger::Stage& stage : baseline.stages) {
    if (stage.total_seconds < options.min_runtime_seconds) continue;
    const Ledger::Stage* other = find_stage(candidate, stage);
    if (other == nullptr) {
      add_finding(result, Finding::Kind::kStructural, id,
                  "stage." + stage.name, "stage missing from candidate");
      continue;
    }
    if (other->total_seconds > stage.total_seconds * options.stage_ratio) {
      add_finding(
          result, Finding::Kind::kTiming, id, "stage." + stage.name,
          "stage regression: " + format_seconds(stage.total_seconds) + " -> " +
              format_seconds(other->total_seconds) + " (" +
              format_ratio(other->total_seconds / stage.total_seconds) +
              ", threshold " + format_ratio(options.stage_ratio) + ")");
    }
  }
  // RSS only compares like with like: a different worker count legitimately
  // changes the high-water mark.
  const std::optional<std::string> base_threads =
      baseline.config_value("threads");
  const std::optional<std::string> cand_threads =
      candidate.config_value("threads");
  const bool threads_match =
      base_threads && cand_threads && *base_threads == *cand_threads;
  if (baseline.peak_rss_bytes.has_value() &&
      !candidate.peak_rss_bytes.has_value()) {
    // Mirror of the lost-resource-series rule above: the baseline measured
    // its RSS, so a null candidate silently un-gates the RSS check — that
    // is drift, not noise. (A null baseline still mutes with a note: there
    // is nothing to compare against.)
    add_finding(result, Finding::Kind::kStructural, id, "peak_rss_bytes",
                "baseline measured peak RSS but candidate recorded null — "
                "losing the measurement would un-gate the RSS check");
  } else if (!baseline.peak_rss_bytes.has_value()) {
    result.notes.push_back(
        id + ": RSS gate muted (baseline peak_rss_bytes null — getrusage "
             "failed at capture time)");
  } else if (*baseline.peak_rss_bytes > 0 && *candidate.peak_rss_bytes > 0 &&
             threads_match) {
    const double ratio = static_cast<double>(*candidate.peak_rss_bytes) /
                         static_cast<double>(*baseline.peak_rss_bytes);
    if (ratio > options.rss_ratio) {
      add_finding(result, Finding::Kind::kTiming, id, "peak_rss_bytes",
                  "peak RSS regression: " +
                      std::to_string(*baseline.peak_rss_bytes) + " -> " +
                      std::to_string(*candidate.peak_rss_bytes) + " bytes (" +
                      format_ratio(ratio) + ", threshold " +
                      format_ratio(options.rss_ratio) + ")");
    }
  } else {
    result.notes.push_back(id + ": RSS gate skipped (thread counts differ "
                                "or RSS unavailable)");
  }
  // RSS growth slope: a leak is visible as sustained growth long before the
  // high-water mark crosses rss_ratio. The 1 MiB/s allowance keeps a flat
  // baseline (slope ~0) from flagging allocator jitter.
  if (baseline.resource_series && candidate.resource_series &&
      threads_match &&
      (baseline.resource_series->rss_bytes.size() < 2 ||
       candidate.resource_series->rss_bytes.size() < 2)) {
    // A slope fit needs two points; comparing a degenerate series' 0.0
    // placeholder against a real slope (or vice versa) is meaningless.
    result.notes.push_back(
        id + ": RSS slope gate muted (a resource series has < 2 samples — "
             "slope undefined; sample faster or run longer)");
  } else if (baseline.resource_series && candidate.resource_series &&
             threads_match) {
    constexpr double kSlopeAllowance = 1024.0 * 1024.0;  // 1 MiB/s
    const double base_slope =
        std::max(baseline.resource_series->rss_slope_bytes_per_second, 0.0);
    const double cand_slope =
        candidate.resource_series->rss_slope_bytes_per_second;
    const double threshold =
        base_slope * options.rss_slope_ratio + kSlopeAllowance;
    if (cand_slope > threshold) {
      char base_text[32];
      char cand_text[32];
      std::snprintf(base_text, sizeof base_text, "%.0f", base_slope);
      std::snprintf(cand_text, sizeof cand_text, "%.0f", cand_slope);
      add_finding(result, Finding::Kind::kTiming, id,
                  "resource_series.rss_slope",
                  "RSS growth regression: " + std::string(base_text) +
                      " -> " + std::string(cand_text) +
                      " bytes/s (threshold " +
                      format_ratio(options.rss_slope_ratio) +
                      " + 1 MiB/s allowance)");
    }
  }
  // Hardware-counter gates (schema /3): timing-class, and muted — never
  // failed — when counters are unavailable on either side. A ladder that
  // bottomed out, a software-tier run with no cycles, or a thread-count
  // mismatch all leave nothing comparable; the notes say which.
  if (baseline.hw_counters || candidate.hw_counters) {
    const bool base_hw =
        baseline.hw_counters && baseline.hw_counters->available();
    const bool cand_hw =
        candidate.hw_counters && candidate.hw_counters->available();
    if (!base_hw || !cand_hw) {
      std::string why;
      if (baseline.hw_counters && !base_hw) {
        why = "baseline prof_unavailable: " +
              baseline.hw_counters->prof_unavailable;
      } else if (candidate.hw_counters && !cand_hw) {
        why = "candidate prof_unavailable: " +
              candidate.hw_counters->prof_unavailable;
      } else {
        why = !baseline.hw_counters ? "baseline has no hw_counters block"
                                    : "candidate has no hw_counters block";
      }
      result.notes.push_back(id + ": IPC/cache gates muted (" + why + ")");
    } else if (!threads_match) {
      result.notes.push_back(
          id + ": IPC/cache gates muted (thread counts differ — per-lane "
               "counter totals are not comparable)");
    } else {
      const Ledger::HwValues& base_v = baseline.hw_counters->total;
      const Ledger::HwValues& cand_v = candidate.hw_counters->total;
      if (base_v.ipc && cand_v.ipc && *cand_v.ipc > 0.0) {
        const double ratio = *base_v.ipc / *cand_v.ipc;
        if (ratio > options.ipc_ratio) {
          char base_text[32];
          char cand_text[32];
          std::snprintf(base_text, sizeof base_text, "%.3f", *base_v.ipc);
          std::snprintf(cand_text, sizeof cand_text, "%.3f", *cand_v.ipc);
          add_finding(result, Finding::Kind::kTiming, id, "hw.ipc",
                      "IPC regression: " + std::string(base_text) + " -> " +
                          std::string(cand_text) + " (" +
                          format_ratio(ratio) + ", threshold " +
                          format_ratio(options.ipc_ratio) + ")");
        }
      } else {
        result.notes.push_back(
            id + ": IPC gate muted (a side's counter tier measured no "
                 "cycles — source " +
            baseline.hw_counters->source + " vs " +
            candidate.hw_counters->source + ")");
      }
      if (base_v.cache_miss_rate && cand_v.cache_miss_rate) {
        constexpr double kRateAllowance = 0.02;
        const double threshold =
            *base_v.cache_miss_rate * options.cache_miss_ratio +
            kRateAllowance;
        if (*cand_v.cache_miss_rate > threshold) {
          char base_text[32];
          char cand_text[32];
          std::snprintf(base_text, sizeof base_text, "%.4f",
                        *base_v.cache_miss_rate);
          std::snprintf(cand_text, sizeof cand_text, "%.4f",
                        *cand_v.cache_miss_rate);
          add_finding(result, Finding::Kind::kTiming, id,
                      "hw.cache_miss_rate",
                      "cache-miss-rate regression: " +
                          std::string(base_text) + " -> " +
                          std::string(cand_text) + " (threshold " +
                          format_ratio(options.cache_miss_ratio) +
                          " + 0.02 allowance)");
        }
      } else {
        result.notes.push_back(
            id + ": cache-miss-rate gate muted (a side's counter tier "
                 "measured no cache events — source " +
            baseline.hw_counters->source + " vs " +
            candidate.hw_counters->source + ")");
      }
    }
  }
  return result;
}

namespace {

[[nodiscard]] std::vector<std::string> ledger_files(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 + 6 &&  // "BENCH_" + ".json"
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

DiffResult diff_directories(const std::string& baseline_dir,
                            const std::string& candidate_dir,
                            const DiffOptions& options) {
  DiffResult result;
  const std::vector<std::string> baselines = ledger_files(baseline_dir);
  if (baselines.empty()) {
    // Distinct messages for "wrong path" vs "nothing committed": both mean
    // zero gating would happen, which must be a loud failure, not a pass
    // over an empty set.
    std::error_code ec;
    const bool exists = std::filesystem::is_directory(baseline_dir, ec);
    add_finding(result, Finding::Kind::kStructural, baseline_dir, "baselines",
                exists ? "baseline directory contains no BENCH_*.json "
                         "ledgers — nothing would be gated; commit baselines "
                         "or point --baselines at the right directory"
                       : "baseline directory does not exist");
    return result;
  }
  for (const std::string& name : baselines) {
    const std::string baseline_path = baseline_dir + "/" + name;
    const std::string candidate_path = candidate_dir + "/" + name;
    std::string error;
    const std::optional<Ledger> baseline =
        load_ledger(baseline_path, &error);
    if (!baseline) {
      add_finding(result, Finding::Kind::kMalformed, name, "baseline", error);
      continue;
    }
    if (!std::filesystem::exists(candidate_path)) {
      if (options.require_all) {
        add_finding(result, Finding::Kind::kMissing, baseline->experiment,
                    "candidate", "no candidate ledger " + candidate_path);
      } else {
        result.notes.push_back(baseline->experiment +
                               ": no candidate ledger, skipped");
      }
      continue;
    }
    error.clear();
    const std::optional<Ledger> candidate =
        load_ledger(candidate_path, &error);
    if (!candidate) {
      add_finding(result, Finding::Kind::kMalformed, name, "candidate", error);
      continue;
    }
    DiffResult pair = diff_ledgers(*baseline, *candidate, options);
    result.compared += pair.compared;
    for (Finding& finding : pair.findings) {
      result.findings.push_back(std::move(finding));
    }
    for (std::string& note : pair.notes) {
      result.notes.push_back(std::move(note));
    }
  }
  for (const std::string& name : ledger_files(candidate_dir)) {
    if (std::find(baselines.begin(), baselines.end(), name) ==
        baselines.end()) {
      // An unpaired candidate means a bench that runs but is never gated —
      // structural drift that used to hide in the notes.
      add_finding(result, Finding::Kind::kStructural, name, "baseline",
                  "candidate has no committed baseline pair — the bench "
                  "runs ungated; commit " +
                      baseline_dir + "/" + name);
    }
  }
  return result;
}

DiffResult flat_rss_check(const Ledger& ledger,
                          double max_slope_bytes_per_second) {
  DiffResult result;
  result.compared = 1;
  const std::string id =
      !ledger.experiment.empty() ? ledger.experiment : ledger.path;
  if (!ledger.resource_series) {
    add_finding(result, Finding::Kind::kStructural, id, "resource_series",
                "no resource series to gate (run the bench with "
                "--sample-interval-ms > 0)");
    return result;
  }
  const Ledger::ResourceSeries& series = *ledger.resource_series;
  if (series.rss_bytes.size() < 2) {
    add_finding(result, Finding::Kind::kStructural, id, "resource_series",
                "only " + std::to_string(series.rss_bytes.size()) +
                    " sample(s) — a slope fit needs two; sample faster or "
                    "run longer");
    return result;
  }
  char slope_text[32];
  std::snprintf(slope_text, sizeof slope_text, "%.0f",
                series.rss_slope_bytes_per_second);
  char budget_text[32];
  std::snprintf(budget_text, sizeof budget_text, "%.0f",
                max_slope_bytes_per_second);
  if (series.rss_slope_bytes_per_second > max_slope_bytes_per_second) {
    add_finding(result, Finding::Kind::kTiming, id,
                "resource_series.rss_slope",
                "RSS slope " + std::string(slope_text) +
                    " bytes/s exceeds the flatness budget " +
                    std::string(budget_text) + " bytes/s over " +
                    std::to_string(series.rss_bytes.size()) + " samples");
  } else {
    result.notes.push_back(id + ": RSS slope " + std::string(slope_text) +
                           " bytes/s within the flatness budget " +
                           std::string(budget_text) + " bytes/s (" +
                           std::to_string(series.rss_bytes.size()) +
                           " samples)");
  }
  return result;
}

DiffResult check_directory(const std::string& dir) {
  DiffResult result;
  const std::vector<std::string> names = ledger_files(dir);
  if (names.empty()) {
    add_finding(result, Finding::Kind::kStructural, dir, "baselines",
                "no BENCH_*.json ledgers found");
    return result;
  }
  for (const std::string& name : names) {
    std::string error;
    const std::optional<Ledger> ledger = load_ledger(dir + "/" + name, &error);
    if (!ledger) {
      add_finding(result, Finding::Kind::kMalformed, name, "ledger", error);
      continue;
    }
    ++result.compared;
    for (Finding& finding : check_ledger(*ledger)) {
      result.findings.push_back(std::move(finding));
    }
  }
  return result;
}

std::string_view to_string(Finding::Kind kind) noexcept {
  switch (kind) {
    case Finding::Kind::kMalformed: return "malformed";
    case Finding::Kind::kStructural: return "structural";
    case Finding::Kind::kExact: return "exact";
    case Finding::Kind::kTiming: return "timing";
    case Finding::Kind::kMissing: return "missing";
  }
  return "unknown";
}

std::string render_report(const DiffResult& result) {
  std::ostringstream out;
  for (const Finding& finding : result.findings) {
    out << "FAIL [" << to_string(finding.kind) << "] " << finding.experiment
        << " " << finding.metric << ": " << finding.detail << "\n";
  }
  for (const std::string& note : result.notes) {
    out << "note: " << note << "\n";
  }
  out << "benchdiff: " << result.compared << " ledger(s) compared, "
      << result.findings.size() << " finding(s) — "
      << (result.ok() ? "PASS" : "FAIL") << "\n";
  return out.str();
}

}  // namespace booterscope::benchdiff
