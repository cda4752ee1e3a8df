// perfbench: one driver for booterscope's two real paths.
//
//   perfbench --workload paper_window|dense_window|live_ingest
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//             [--days N] [--attacks-per-day X] [--pool N]
//
// Sets the workload up at least three times (setup_s is the median), then
// runs whole cycles over the workload's landscapes for about --seconds,
// checking the outputs of every iteration. The last stdout line is one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced (--trace 0) it carries the end-to-end metrics. Traced (--trace
// 1) each landscape runs untraced and then traced, and the object carries
// the per-layer metrics of landscape 0's median traced iteration plus the
// tracing overhead; that iteration's spans go to --trace-out.
//
// --days, --attacks-per-day and --pool resize a workload for tests; a
// resized run skips the pinned output digest.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"run_s", "s"},
    {"cpu_s", "s"},            {"peak_rss_mib", "MiB"},
    {"op_p50_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.produce_s", "s"},         {"sim.day_shards_s", "s"},
    {"sim.shard_busy_s", "s"},      {"sim.drain_s", "s"},
    {"sim.attacks", "count"},       {"sim.emits", "count"},
    {"sim.flows", "count"},         {"sim.batches", "count"},
    {"exec.busy_s", "s"},           {"exec.idle_s", "s"},
    {"exec.utilization", "ratio"},  {"exec.tasks", "count"},
    {"exec.steals", "count"},       {"core.consume_s", "s"},
    {"core.consume_calls", "count"}, {"core.rows", "count"},
    {"core.batch_fill", "ratio"},   {"core.barrier_s", "s"},
    {"core.barriers", "count"},     {"core.finish_s", "s"},
    {"core.verdict_s", "s"},        {"svc.offer_s", "s"},
    {"svc.pump_s", "s"},            {"svc.drain_s", "s"},
    {"svc.session_ingest_s", "s"},  {"svc.apply_s", "s"},
    {"svc.datagrams", "count"},     {"svc.rows", "count"},
    {"svc.shed", "count"},          {"svc.failed", "count"},
    {"svc.quarantined", "count"},   {"svc.late_rows", "count"},
    {"svc.wild_rows", "count"},     {"svc.sessions", "count"},
    {"svc.dgram_p50_us", "us"},     {"svc.dgram_p999_us", "us"},
    {"self.sim_s", "s"},            {"self.core_s", "s"},
    {"self.svc_s", "s"},            {"self.unattributed_s", "s"},
    {"obs.traced_run_s", "s"},      {"obs.trace_overhead", "ratio"},
    {"obs.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_window|dense_window|"
               "live_ingest [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--trace-out FILE] [--days N] "
               "[--attacks-per-day X] [--pool N]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    const auto number = [&]() {
      const double v = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(v) || v < 0.0) {
        usage(("bad value for " + flag).c_str());
      }
      return v;
    };
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad value for --seed");
    } else if (flag == "--seconds") {
      options.seconds = number();
    } else if (flag == "--trace") {
      options.trace = number() != 0.0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--days") {
      options.days = static_cast<int>(number());
    } else if (flag == "--attacks-per-day") {
      options.attacks_per_day = number();
    } else if (flag == "--pool") {
      options.pool = static_cast<std::size_t>(number());
      if (options.pool == 0) usage("--pool must be at least 1");
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Starts a new peak-RSS window: on Linux, writing "5" to clear_refs
/// resets the VmHWM high-water mark to the current RSS.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak RSS since the last reset_peak_rss(), in MiB (VmHWM; the process
/// peak where the reset is unavailable).
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricDef* defs, std::size_t count,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < count; ++i) {
    const auto found = values.find(defs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name,
                found == values.end() ? 0.0 : found->second, defs[i].unit);
  }
  std::printf("}}\n");
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_offline(options);
  if (!workload) workload = make_live(options);
  if (!workload) usage(("unknown workload " + options.workload).c_str());
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d pool=%zu\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.pool);

  // Cheap set-ups repeat until a second is spent, so their median is steady.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups && setup_total_s < 1.0)) {
    const std::int64_t t0 = now_ns();
    workload->setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_total_s += setup_s.back();
  }

  // Per-cycle means (of each iteration's time, CPU time and peak RSS): a
  // cycle's landscapes differ in cost, its mean does not.
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<double> traced_run_s;
  std::vector<double> rss_mib;
  double cycle_run_s = 0.0;
  double cycle_cpu_s = 0.0;
  double cycle_rss_mib = 0.0;
  double cycle_traced_run_s = 0.0;
  std::vector<float> op_us;
  std::vector<std::pair<Iteration, SpanLog>> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  // A cycle runs each of the workload's landscapes once (untraced, then
  // traced when --trace is on). Whole cycles keep the input mix the same
  // however many fit; another one starts only if it should end in time.
  std::size_t iteration = 0;
  const std::int64_t start = now_ns();
  for (std::size_t cycle = 1;; ++cycle) {
    for (std::size_t landscape = 0; landscape < workload->landscapes();
         ++landscape) {
      for (const bool tracing : {false, true}) {
        if (tracing && !options.trace) continue;
        SpanLog log(options.workload + "-seed" + std::to_string(options.seed) +
                    "-iter" + std::to_string(iteration));
        reset_peak_rss();
        Iteration it = workload->run(tracing ? &log : nullptr, landscape);
        const double iteration_rss_mib = peak_rss_mib();
        std::printf("iteration %zu landscape %zu%s: run_s=%.6f cpu_s=%.6f "
                    "peak_rss_mib=%.1f %s\n",
                    iteration, landscape, tracing ? " (traced)" : "", it.run_s,
                    it.cpu_s, iteration_rss_mib, it.summary.c_str());
        for (const std::string& what : it.check_failures) {
          std::printf("  CHECK FAILED: %s\n", what.c_str());
        }
        attempted += it.attempted;
        failed += it.failed;
        checks += it.checks;
        check_failures += it.check_failures.size();
        if (tracing) {
          cycle_traced_run_s += it.run_s;
          if (landscape == 0) traced.emplace_back(std::move(it), std::move(log));
        } else {
          cycle_run_s += it.run_s;
          cycle_cpu_s += it.cpu_s;
          cycle_rss_mib += iteration_rss_mib;
          op_us.insert(op_us.end(), it.op_us.begin(), it.op_us.end());
        }
        ++iteration;
      }
    }
    const auto per_landscape = [&](double& sum, std::vector<double>& out) {
      out.push_back(sum / static_cast<double>(workload->landscapes()));
      sum = 0.0;
    };
    per_landscape(cycle_run_s, run_s);
    per_landscape(cycle_cpu_s, cpu_s);
    per_landscape(cycle_rss_mib, rss_mib);
    per_landscape(cycle_traced_run_s, traced_run_s);
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (elapsed + elapsed / static_cast<double>(cycle) > options.seconds) break;
  }
  const bool correct = check_failures == 0 && failed == 0;
  std::printf("checks: %llu run, %llu failed; operations: %llu attempted, "
              "%llu failed (failed_share=%.6g)\n",
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(check_failures),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));

  std::map<std::string, double> metrics;
  if (!options.trace) {
    metrics["setup_s"] = median(setup_s);
    metrics["run_s"] = median(run_s);
    metrics["cpu_s"] = median(cpu_s);
    metrics["peak_rss_mib"] = median(rss_mib);
    std::printf("latency samples: %zu\n", op_us.size());
    metrics["op_p50_us"] = percentile(op_us, 0.5);
    print_result(correct, attempted, failed, kEndToEnd, std::size(kEndToEnd),
                 metrics);
    return 0;
  }

  // Landscape 0's median traced iteration supplies every per-layer value:
  // the exact counts then repeat from run to run at a seed, and the self
  // times sum to that iteration's own run_s.
  std::sort(traced.begin(), traced.end(), [](const auto& a, const auto& b) {
    return a.first.run_s < b.first.run_s;
  });
  const auto& [chosen, log] = traced[(traced.size() - 1) / 2];
  metrics = workload->setup_layers();
  for (const auto& [name, value] : chosen.layer) metrics[name] = value;
  const std::map<std::string, double> self = log.self_seconds();
  double attributed = 0.0;
  for (const char* layer : {"sim", "core", "svc"}) {
    const auto found = self.find(layer);
    const double value = found == self.end() ? 0.0 : found->second;
    metrics[std::string("self.") + layer + "_s"] = value;
    attributed += value;
  }
  metrics["self.unattributed_s"] = chosen.run_s - attributed;
  metrics["obs.traced_run_s"] = chosen.run_s;
  metrics["obs.trace_overhead"] = median(traced_run_s) / median(run_s);
  metrics["obs.spans"] = static_cast<double>(log.spans().size());
  std::printf("self time of %s (run_s %.6f): sim %.6f  core %.6f  svc %.6f  "
              "unattributed %.6f\n",
              log.run_id().c_str(), chosen.run_s, metrics["self.sim_s"],
              metrics["self.core_s"], metrics["self.svc_s"],
              metrics["self.unattributed_s"]);
  if (!options.trace_out.empty()) {
    if (!log.write_jsonl(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", log.spans().size(),
                options.trace_out.c_str());
  }
  print_result(correct, attempted, failed, kPerLayer, std::size(kPerLayer),
               metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
