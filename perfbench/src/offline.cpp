// The offline workloads: simulate -> day shards -> drain -> StreamAnalysis
// -> wt30/wt40 verdicts, through the streaming engine on a pool of worker
// threads, with the driver thread draining.
//
//   paper_window  the paper's 122-day window at 300 attacks/day, Fig. 4's
//                 six to-port panels plus the from-reflectors control.
//                 Market replay makes shard cost grow with the day index,
//                 so the simulator dominates.
//   dense_window  28 days at 3000 attacks/day, the same seven series plus
//                 Fig. 5's hourly attacked-systems pass on the IXP. Three
//                 times the rows over a quarter of the horizon: replay is
//                 negligible and the serial drain into the analysis sits on
//                 the critical path.
#include <bit>
#include <cstdio>
#include <cstring>
#include <optional>

#include "bench.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "sim/landscape_stream.hpp"

namespace perfbench {

namespace bs = booterscope;

namespace {

struct OfflineShape {
  const char* name;
  int days;
  double attacks_per_day;
  bool hourly;
  /// Landscapes per run: 25-35 s of timed phases on four cores.
  std::size_t landscapes;
  /// Output digest of landscape 0 at kDefaultSeed (any pool size).
  std::uint64_t digest;
};

constexpr OfflineShape kShapes[] = {
    {"paper_window", 122, 300.0, false, 7, 0x08deadd06a629f47ULL},
    {"dense_window", 28, 3000.0, true, 5, 0x6b1c006fb9c80d39ULL},
};

struct Panel {
  const char* name;
  std::uint16_t port;
  std::size_t vantage;
};
constexpr Panel kPanels[] = {
    {"memcached->IXP", bs::net::ports::kMemcached, bs::flow::kVantageIxp},
    {"ntp->tier2", bs::net::ports::kNtp, bs::flow::kVantageTier2},
    {"dns->tier2", bs::net::ports::kDns, bs::flow::kVantageTier2},
    {"ntp->IXP", bs::net::ports::kNtp, bs::flow::kVantageIxp},
    {"memcached->tier2", bs::net::ports::kMemcached, bs::flow::kVantageTier2},
    {"dns->IXP", bs::net::ports::kDns, bs::flow::kVantageIxp},
};

std::vector<bs::core::SeriesSpec> fig4_specs() {
  std::vector<bs::core::SeriesSpec> specs;
  for (const Panel& panel : kPanels) {
    bs::core::SeriesSpec spec;
    spec.name = panel.name;
    spec.vantage = panel.vantage;
    spec.kind = bs::core::SeriesSpec::Kind::kToPort;
    spec.port = panel.port;
    specs.push_back(std::move(spec));
  }
  bs::core::SeriesSpec control;
  control.name = "from-reflectors->IXP";
  control.vantage = bs::flow::kVantageIxp;
  control.kind = bs::core::SeriesSpec::Kind::kFromReflectors;
  specs.push_back(std::move(control));
  return specs;
}

/// FNV-1a over the bytes of the run's outputs.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      state_ = (state_ ^ b) * 0x100000001b3ULL;
    }
  }
  void add_series(const bs::stats::BinnedSeries& series) {
    for (const double v : series.values()) add(v);
  }
  void add_window(const bs::core::WindowMetrics& w) {
    add(w.window_days);
    add(w.welch.t_statistic);
    add(w.welch.degrees_of_freedom);
    add(w.welch.p_value_greater);
    add(w.welch.p_value_two_sided);
    add(w.welch.mean_before);
    add(w.welch.mean_after);
    add(w.significant);
    add(w.reduction);
    add(w.effective_before_days);
    add(w.effective_after_days);
    add(w.excluded_days);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool windows_identical(const bs::core::WindowMetrics& a,
                                     const bs::core::WindowMetrics& b) {
  return a.window_days == b.window_days && a.significant == b.significant &&
         same_bits(a.welch.t_statistic, b.welch.t_statistic) &&
         same_bits(a.welch.degrees_of_freedom, b.welch.degrees_of_freedom) &&
         same_bits(a.welch.p_value_greater, b.welch.p_value_greater) &&
         same_bits(a.welch.p_value_two_sided, b.welch.p_value_two_sided) &&
         same_bits(a.welch.mean_before, b.welch.mean_before) &&
         same_bits(a.welch.mean_after, b.welch.mean_after) &&
         same_bits(a.reduction, b.reduction) &&
         a.effective_before_days == b.effective_before_days &&
         a.effective_after_days == b.effective_after_days &&
         a.excluded_days == b.excluded_days;
}

/// One daily series with its two verdicts: the series path and the online
/// Welford path, which must agree to the bit.
struct Verdicts {
  std::string name;
  const bs::stats::BinnedSeries* daily;
  bs::core::TakedownMetrics series;
  bs::core::TakedownMetrics online;
};

class OfflineWorkload final : public Workload {
 public:
  OfflineWorkload(const Options& options, const OfflineShape& shape)
      : options_(options), shape_(shape) {
    config_ = bs::sim::paper_landscape_config();
    config_.attacks_per_day = options.attacks_per_day > 0.0
                                  ? options.attacks_per_day
                                  : shape.attacks_per_day;
    const int days = options.days > 0 ? options.days : shape.days;
    if (days != config_.days) {
      // Same rule as the benches' --days: takedown two thirds through the
      // window, every vantage observing all of it.
      config_.days = days;
      config_.takedown = config_.start + bs::util::Duration::days(days * 2 / 3);
      config_.ixp_window.reset();
      config_.tier1_window.reset();
      config_.tier2_window.reset();
    }
    pinned_ = options.seed == kDefaultSeed && options.days == 0 &&
              options.attacks_per_day <= 0.0;
  }

  void setup() override {
    analysis_.reset();
    pool_.reset();
    internet_.reset();
    internet_.emplace(bs::sim::InternetConfig{});
    pool_.emplace(options_.pool);
    analysis_ = make_analysis();
  }

  [[nodiscard]] std::size_t landscapes() const override {
    return shape_.landscapes;
  }

  Iteration run(SpanLog* log, std::size_t landscape) override {
    if (!analysis_) analysis_ = make_analysis();
    bs::sim::LandscapeConfig config = config_;
    config.seed = landscape_seed(options_.seed, landscape);
    bs::core::StreamAnalysis& analysis = *analysis_;
    const bs::util::Timestamp takedown = *config_.takedown;

    Iteration it;
    std::optional<bs::obs::StageTracer> tracer;
    if (log != nullptr) tracer.emplace();
    const LandscapeProbe probe = LandscapeProbe::start(*pool_);

    // ---- timed phase (every span lies inside it) -------------------------
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    const std::uint32_t root =
        log != nullptr ? log->begin("run", SpanLog::kNoParent) : 0;
    const std::uint32_t stream =
        log != nullptr ? log->begin("sim.run_landscape_stream", root) : 0;
    TimedSink sink(analysis, log, stream, &it.op_us);
    const bs::sim::StreamSummary summary = bs::sim::run_landscape_stream(
        *internet_, config, *pool_, sink, {},
        tracer ? &*tracer : nullptr);
    const std::int64_t t_stream = now_ns();
    if (log != nullptr) log->end(stream);

    const std::uint32_t finish =
        log != nullptr ? log->begin("core.finish", root) : 0;
    analysis.finish();
    const std::int64_t t_finish = now_ns();
    if (log != nullptr) log->end(finish);

    const std::uint32_t verdict =
        log != nullptr ? log->begin("core.verdicts", root) : 0;
    std::vector<Verdicts> verdicts;
    std::optional<bs::stats::BinnedSeries> hourly_daily;
    if (shape_.hourly) {
      hourly_daily = analysis.hourly_victims().rebin(bs::util::Duration::days(1));
    }
    const auto judge = [&](std::string name,
                           const bs::stats::BinnedSeries& daily) {
      bs::core::TakedownAccumulator accumulator(takedown);
      accumulator.add_series(daily);
      verdicts.push_back({std::move(name), &daily,
                          bs::core::takedown_metrics(daily, takedown),
                          accumulator.finish()});
    };
    for (std::size_t i = 0; i < analysis.series_count(); ++i) {
      judge(analysis.spec(i).name, analysis.series(i));
    }
    if (hourly_daily) judge("hourly-victims->IXP", *hourly_daily);
    if (log != nullptr) {
      log->end(verdict);
      log->end(root);
    }
    const std::int64_t t1 = now_ns();
    it.cpu_s = cpu_seconds() - cpu0;
    it.run_s = static_cast<double>(t1 - t0) / 1e9;

    // ---- output checks -------------------------------------------------
    const auto check = [&](bool ok, const std::string& what) {
      ++it.checks;
      if (!ok) it.check_failures.push_back(what);
    };
    check(sink.rows == summary.total_flows(),
          "sink rows " + std::to_string(sink.rows) + " != total_flows " +
              std::to_string(summary.total_flows()));
    Digest digest;
    const std::uint64_t items = summary.attack_count + sink.rows;
    digest.add(items);
    for (const Verdicts& v : verdicts) {
      check(windows_identical(v.series.wt30, v.online.wt30) &&
                windows_identical(v.series.wt40, v.online.wt40),
            "online verdict differs on " + v.name);
      digest.add_series(*v.daily);
      digest.add_window(v.series.wt30);
      digest.add_window(v.series.wt40);
    }
    if (shape_.hourly) digest.add_series(analysis.hourly_victims());
    if (pinned_ && landscape == 0) {
      check(digest.value() == shape_.digest, "digest differs from the pinned value");
    }
    it.attempted = it.checks;
    it.failed = it.check_failures.size();

    char line[256];
    std::snprintf(line, sizeof line,
                  "digest=0x%016llx items=%llu attacks=%llu rows=%llu "
                  "batches=%llu series=%zu",
                  static_cast<unsigned long long>(digest.value()),
                  static_cast<unsigned long long>(items),
                  static_cast<unsigned long long>(summary.attack_count),
                  static_cast<unsigned long long>(sink.rows),
                  static_cast<unsigned long long>(summary.batches),
                  verdicts.size());
    it.summary = line;

    if (log != nullptr) {
      probe.finish(*pool_, static_cast<double>(t_stream - t0) / 1e9, sink,
                   summary.attack_count, summary.batches, &*tracer, it.layer);
      it.layer["core.consume_s"] = static_cast<double>(sink.consume_ns) / 1e9;
      it.layer["core.consume_calls"] = static_cast<double>(sink.consume_calls);
      it.layer["core.rows"] = static_cast<double>(sink.rows);
      it.layer["core.batch_fill"] =
          sink.consume_calls == 0
              ? 0.0
              : static_cast<double>(sink.rows) /
                    (static_cast<double>(sink.consume_calls) *
                     static_cast<double>(bs::flow::FlowBatch::kDefaultCapacity));
      it.layer["core.barrier_s"] = static_cast<double>(sink.barrier_ns) / 1e9;
      it.layer["core.barriers"] = static_cast<double>(sink.barriers);
      it.layer["core.finish_s"] =
          static_cast<double>(t_finish - t_stream) / 1e9;
      it.layer["core.verdict_s"] = static_cast<double>(t1 - t_finish) / 1e9;
    }
    analysis_.reset();
    return it;
  }

 private:
  [[nodiscard]] std::unique_ptr<bs::core::StreamAnalysis> make_analysis() const {
    auto analysis = std::make_unique<bs::core::StreamAnalysis>(
        config_.start, config_.days, fig4_specs());
    if (shape_.hourly) {
      analysis->enable_hourly_victims(bs::flow::kVantageIxp, {});
    }
    return analysis;
  }

  Options options_;
  OfflineShape shape_;
  bs::sim::LandscapeConfig config_;
  bool pinned_ = false;
  std::optional<bs::sim::Internet> internet_;
  std::optional<bs::exec::ThreadPool> pool_;
  std::unique_ptr<bs::core::StreamAnalysis> analysis_;
};

}  // namespace

std::unique_ptr<Workload> make_offline(const Options& options) {
  for (const OfflineShape& shape : kShapes) {
    if (options.workload == shape.name) {
      return std::make_unique<OfflineWorkload>(options, shape);
    }
  }
  return nullptr;
}

}  // namespace perfbench
