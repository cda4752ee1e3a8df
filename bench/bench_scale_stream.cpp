// Scale probe of the landscape engine (DESIGN.md §9, §14): runs the
// landscape at an attack demand an order of magnitude above the paper
// config's default, builds the Fig. 4 headline series in one bounded-
// memory pass, and self-checks the online Welford verdict path
// (core::TakedownAccumulator) against the series-based takedown_metrics —
// the two must agree to the bit, or the bench fails.
//
// CI's scale-smoke job gates this bench's ledger (BENCH_scale_stream.json)
// against the committed baseline and checks the sampled RSS slope against
// the flatness budget (benchdiff --flat-rss).
#include <cmath>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

std::string metric_string(const core::TakedownMetrics& m) {
  return std::string("wt30=") + (m.wt30.significant ? "True" : "False") +
         " red30=" + util::format_double(m.wt30.reduction * 100.0, 2) +
         "% wt40=" + (m.wt40.significant ? "True" : "False") +
         " red40=" + util::format_double(m.wt40.reduction * 100.0, 2) + "%";
}

[[nodiscard]] bool windows_equal(const core::WindowMetrics& a,
                                 const core::WindowMetrics& b) {
  return a.window_days == b.window_days && a.significant == b.significant &&
         a.welch.t_statistic == b.welch.t_statistic &&
         a.welch.degrees_of_freedom == b.welch.degrees_of_freedom &&
         a.welch.p_value_greater == b.welch.p_value_greater &&
         a.welch.mean_before == b.welch.mean_before &&
         a.welch.mean_after == b.welch.mean_after &&
         a.reduction == b.reduction &&
         a.effective_before_days == b.effective_before_days &&
         a.effective_after_days == b.effective_after_days &&
         a.excluded_days == b.excluded_days;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Scale stream",
                      "Streaming engine at 10x attack demand, flat RSS");

  bench::RunOptions options = bench::parse_run_options(argc, argv);
  // This bench exists to exercise the engine at scale, so the defaults
  // differ from the figure benches: the window is 40 days at 10x the paper
  // config's attack demand.
  if (options.days == 0) options.days = 40;
  if (options.attacks_per_day <= 0.0) options.attacks_per_day = 3000.0;

  bench::StreamWorld world(options);
  const util::Timestamp takedown = *world.config.takedown;

  std::vector<core::SeriesSpec> specs(2);
  specs[0].name = "packets NTP dst port — IXP";
  specs[0].vantage = flow::kVantageIxp;
  specs[0].kind = core::SeriesSpec::Kind::kToPort;
  specs[0].port = net::ports::kNtp;
  specs[1].name = "control: packets FROM reflectors — IXP";
  specs[1].vantage = flow::kVantageIxp;
  specs[1].kind = core::SeriesSpec::Kind::kFromReflectors;

  core::StreamAnalysis analysis(world.config.start, world.config.days,
                                std::move(specs));
  if (world.fault_plan) {
    analysis.set_fault_plan(&*world.fault_plan, &world.integrity);
  }
  world.run(analysis);
  analysis.finish();
  world.stamp_coverage(analysis.mutable_series(0), flow::kVantageIxp);
  world.stamp_coverage(analysis.mutable_series(1), flow::kVantageIxp);

  std::cout << "attacks: " << world.summary.attack_count
            << "  flows kept: " << analysis.total_kept_flows()
            << "  batches: " << world.summary.batches << " (x"
            << world.stream_batch << " rows)\n\n";

  util::Table table({"series", "verdict"});
  bool agree = true;
  for (std::size_t i = 0; i < analysis.series_count(); ++i) {
    const auto metrics = core::takedown_metrics(analysis.series(i), takedown);
    // The online path: per-day Welford moments only, no resident series.
    core::TakedownAccumulator accumulator(takedown);
    accumulator.add_series(analysis.series(i));
    const auto online = accumulator.finish();
    const bool same = windows_equal(metrics.wt30, online.wt30) &&
                      windows_equal(metrics.wt40, online.wt40);
    agree = agree && same;
    table.row().add(analysis.spec(i).name).add(metric_string(metrics));
  }
  table.print(std::cout);
  std::cout << "\nonline Welford verdicts match series verdicts: "
            << (agree ? "True" : "False") << "\n";

  bench::print_comparisons({
      {"streaming vs materialized output", "byte-identical (DESIGN.md §14)",
       "pinned by tests/integration/stream_equivalence_test"},
      {"online vs series wtN/redN", "bit-identical (Welford refactor)",
       agree ? "True" : "False"},
  });
  world.write_observability(
      "scale_stream", world.result_items(analysis.total_kept_flows()));
  return agree ? 0 : 1;
}
