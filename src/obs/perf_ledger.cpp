#include "obs/perf_ledger.hpp"

#include <cstdio>
#include <memory>

#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace booterscope::obs {

std::optional<std::uint64_t> try_peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return std::nullopt;
#if defined(__APPLE__)
  // ru_maxrss is bytes on Darwin, kilobytes on Linux/BSD.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return std::nullopt;
#endif
}

std::uint64_t peak_rss_bytes() noexcept {
  return try_peak_rss_bytes().value_or(0);
}

void PerfLedger::add_config(std::string_view key, std::string_view value) {
  config_.emplace_back(std::string(key), std::string(value));
}

void PerfLedger::add_config(std::string_view key, std::uint64_t value) {
  config_.emplace_back(std::string(key), std::to_string(value));
}

void PerfLedger::add_work(std::string_view key, std::uint64_t value) {
  work_.emplace_back(std::string(key), value);
}

void PerfLedger::set_stages(const StageTracer& tracer) {
  stages_.clear();
  for (const StageTracer::FlatStage& flat : tracer.flatten()) {
    const StageNode& node = *flat.node;
    Stage stage;
    stage.name = node.name;
    stage.depth = flat.depth;
    stage.worker = node.worker;
    stage.total_nanos = node.wall_nanos;
    stage.self_nanos = node.self_nanos();
    stage.calls = node.calls;
    stage.items_in = node.items_in;
    stage.items_out = node.items_out;
    stage.bytes = node.bytes;
    stages_.push_back(std::move(stage));
  }
}

void PerfLedger::set_pool_stats(std::uint64_t tasks, std::uint64_t steals,
                                std::vector<std::uint64_t> busy_nanos_per_worker) {
  pool_tasks_ = tasks;
  pool_steals_ = steals;
  busy_nanos_ = std::move(busy_nanos_per_worker);
}

std::string PerfLedger::to_json() const {
  const auto seconds = [](std::uint64_t nanos) {
    return json_number(static_cast<double>(nanos) / 1e9);
  };

  std::string out = "{\"schema\":\"booterscope-bench-ledger/3\"";
  out += ",\"bench\":" + json_string(bench_);
  if (!experiment_.empty()) {
    out += ",\"experiment\":" + json_string(experiment_);
  }
  out += ",\"git_describe\":" + json_string(build_git_describe());
  out += ",\"seed\":" + json_number(seed_);
  out += ",\"config\":{";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += json_string(config_[i].first) + ":" + json_string(config_[i].second);
  }
  out += "},\"wall_seconds\":" + seconds(wall_nanos_);
  out += ",\"items\":" + json_number(items_);
  const double wall = static_cast<double>(wall_nanos_) / 1e9;
  out += ",\"items_per_second\":" +
         (wall > 0.0 ? json_number(static_cast<double>(items_) / wall)
                     : std::string("0"));
  if (!work_.empty()) {
    out += ",\"work\":{";
    for (std::size_t i = 0; i < work_.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += json_string(work_[i].first) + ":" + json_number(work_[i].second);
    }
    out.push_back('}');
  }
  out += ",\"stages\":[";
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& stage = stages_[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":" + json_string(stage.name);
    out += ",\"depth\":" + std::to_string(stage.depth);
    if (stage.worker >= 0) out += ",\"worker\":" + std::to_string(stage.worker);
    out += ",\"total_seconds\":" + seconds(stage.total_nanos);
    out += ",\"self_seconds\":" + seconds(stage.self_nanos);
    out += ",\"calls\":" + json_number(stage.calls);
    out += ",\"items_in\":" + json_number(stage.items_in);
    out += ",\"items_out\":" + json_number(stage.items_out);
    out += ",\"bytes\":" + json_number(stage.bytes);
    out.push_back('}');
  }
  out += "],\"pool\":{\"workers\":" + std::to_string(busy_nanos_.size());
  out += ",\"tasks\":" + json_number(pool_tasks_);
  out += ",\"steals\":" + json_number(pool_steals_);
  std::uint64_t busy_total = 0;
  out += ",\"busy_seconds\":[";
  for (std::size_t i = 0; i < busy_nanos_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += seconds(busy_nanos_[i]);
    busy_total += busy_nanos_[i];
  }
  out += "],\"busy_seconds_total\":" + seconds(busy_total);
  // Fraction of the pool's wall x workers capacity actually spent in tasks.
  const double capacity = wall * static_cast<double>(busy_nanos_.size());
  out += ",\"utilization\":" +
         (capacity > 0.0
              ? json_number(static_cast<double>(busy_total) / 1e9 / capacity)
              : std::string("0"));
  out.push_back('}');
  if (has_hw_counters_) {
    const HwCounters& hw = hw_counters_;
    if (!hw.unavailable_reason.empty()) {
      // The honesty contract: no counters means an explicit reason, never
      // zero-filled fields a reader could mistake for measurements.
      out += ",\"hw_counters\":{\"prof_unavailable\":" +
             json_string(hw.unavailable_reason) + "}";
    } else {
      const bool has_cycles = hw.source == "hardware" || hw.source == "reduced";
      const bool has_cache = hw.source == "hardware";
      const bool has_software_extras = hw.source == "software";
      const auto values = [&](const HwValues& v) {
        std::string block;
        if (has_cycles) {
          block += "\"cycles\":" + json_number(v.cycles);
          block += ",\"instructions\":" + json_number(v.instructions);
          if (v.cycles > 0) {
            block += ",\"ipc\":" +
                     json_number(static_cast<double>(v.instructions) /
                                 static_cast<double>(v.cycles));
          }
        }
        if (has_cache) {
          block += ",\"cache_references\":" + json_number(v.cache_references);
          block += ",\"cache_misses\":" + json_number(v.cache_misses);
          if (v.cache_references > 0) {
            block += ",\"cache_miss_rate\":" +
                     json_number(static_cast<double>(v.cache_misses) /
                                 static_cast<double>(v.cache_references));
          }
          block += ",\"branches\":" + json_number(v.branches);
          block += ",\"branch_misses\":" + json_number(v.branch_misses);
          if (v.branches > 0) {
            block += ",\"branch_miss_rate\":" +
                     json_number(static_cast<double>(v.branch_misses) /
                                 static_cast<double>(v.branches));
          }
        }
        if (!block.empty()) block.push_back(',');
        block += "\"task_clock_seconds\":" +
                 json_number(static_cast<double>(v.task_clock_nanos) / 1e9);
        if (has_software_extras) {
          block += ",\"page_faults\":" + json_number(v.page_faults);
          block += ",\"context_switches\":" + json_number(v.context_switches);
        }
        return block;
      };
      out += ",\"hw_counters\":{\"source\":" + json_string(hw.source);
      out += ",\"stages\":[";
      for (std::size_t i = 0; i < hw.stages.size(); ++i) {
        const HwCounters::Stage& stage = hw.stages[i];
        if (i > 0) out.push_back(',');
        out += "{\"path\":" + json_string(stage.path);
        out += ",\"lane\":" + std::to_string(stage.lane);
        out += ",\"sections\":" + json_number(stage.sections);
        out.push_back(',');
        out += values(stage.v);
        out.push_back('}');
      }
      out += "],\"total\":{" + values(hw.total) + "}";
      out += ",\"lanes_failed\":" + json_number(hw.lanes_failed);
      out += ",\"dropped_events\":" + json_number(hw.dropped_events);
      out.push_back('}');
    }
  }
  if (has_flow_micro_) {
    const FlowMicro& micro = flow_micro_;
    out += ",\"flow_micro\":{\"map_load_factor\":" +
           json_number(micro.map_load_factor);
    out += ",\"map_bucket_count\":" + json_number(micro.map_bucket_count);
    out += ",\"map_occupied_buckets\":" +
           json_number(micro.map_occupied_buckets);
    out += ",\"map_max_bucket_entries\":" +
           json_number(micro.map_max_bucket_entries);
    out += ",\"map_rehashes\":" + json_number(micro.map_rehashes);
    out += ",\"drain_batches\":" + json_number(micro.drain_batches);
    out += ",\"drain_rows\":" + json_number(micro.drain_rows);
    out += ",\"drain_capacity_rows\":" +
           json_number(micro.drain_capacity_rows);
    // null, not 1.0 or 0.0, when nothing batch-drained: an unmeasured fill
    // must stay distinguishable from a real one.
    out += ",\"drain_batch_fill\":" +
           (micro.drain_capacity_rows > 0
                ? json_number(static_cast<double>(micro.drain_rows) /
                              static_cast<double>(micro.drain_capacity_rows))
                : std::string("null"));
    out.push_back('}');
  }
  if (has_resource_series_) {
    const ResourceSeries& series = resource_series_;
    out += ",\"resource_series\":{\"interval_seconds\":" +
           json_number(static_cast<double>(series.interval_nanos) / 1e9);
    out += ",\"samples\":" + json_number(series.t_seconds.size());
    out += ",\"dropped\":" + json_number(series.dropped);
    out += ",\"t_seconds\":[";
    for (std::size_t i = 0; i < series.t_seconds.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += json_number(series.t_seconds[i]);
    }
    out += "],\"rss_bytes\":[";
    for (std::size_t i = 0; i < series.rss_bytes.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += json_number(series.rss_bytes[i]);
    }
    out += "],\"cpu_seconds\":[";
    for (std::size_t i = 0; i < series.cpu_seconds.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += json_number(series.cpu_seconds[i]);
    }
    out += "],\"rss_slope_bytes_per_second\":" +
           json_number(series.rss_slope_bytes_per_second);
    out.push_back('}');
  }
  // null, not 0, when the capture failed: a reader must not mistake "no
  // measurement" for a zero-byte process.
  out += ",\"peak_rss_bytes\":" +
         (peak_rss_.has_value() ? json_number(*peak_rss_)
                                : std::string("null"));
  out += "}";
  return out;
}

bool PerfLedger::write(const std::string& path) const {
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };
  const std::unique_ptr<std::FILE, FileCloser> file{
      std::fopen(path.c_str(), "wb")};
  if (!file) return false;
  const std::string body = to_json();
  return std::fwrite(body.data(), 1, body.size(), file.get()) == body.size();
}

}  // namespace booterscope::obs
