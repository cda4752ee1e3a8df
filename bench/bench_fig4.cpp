// Fig. 4: daily packets to reflector ports around the takedown, with the
// paper's wt30/wt40 significance tests and red30/red40 reduction ratios —
// and the control: victim-bound reflection traffic shows NO significant
// reduction.
//
// StreamWorld builds every panel series in one bounded-memory pass of the
// landscape engine (core::StreamAnalysis); stdout is byte-identical at any
// --threads and --stream-batch, which CI diffs.
#include <array>
#include <iostream>
#include <span>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "util/sparkline.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

void print_series(const stats::BinnedSeries& daily, const std::string& name,
                  util::Timestamp takedown) {
  std::cout << name << " — daily packets ('│' marks the takedown):\n  "
            << util::sparkline_with_marker(daily.values(),
                                           daily.bin_index(takedown))
            << "\n";
  util::Table table({"date", "packets/day"});
  for (std::size_t bin = 0; bin < daily.bin_count(); bin += 14) {
    table.row()
        .add(daily.bin_start(bin).date_string())
        .add(util::format_count(daily.at(bin)));
  }
  table.print(std::cout, 2);
}

std::string metric_string(const core::TakedownMetrics& m) {
  return std::string("wt30=") + (m.wt30.significant ? "True" : "False") +
         " red30=" + util::format_double(m.wt30.reduction * 100.0, 2) +
         "% wt40=" + (m.wt40.significant ? "True" : "False") +
         " red40=" + util::format_double(m.wt40.reduction * 100.0, 2) + "%";
}

/// The six to-port panels of the figure, in print order. The paper rows of
/// print_comparisons() reference panels 0, 1, 2 and 5 by index.
struct PanelDef {
  const char* name;
  std::uint16_t port;
  std::size_t vantage;
  bool print_full;
};
constexpr PanelDef kPanels[] = {
    {"packets memcached dst port — IXP", net::ports::kMemcached,
     flow::kVantageIxp, true},
    {"packets NTP dst port — tier-2 ISP", net::ports::kNtp,
     flow::kVantageTier2, true},
    {"packets DNS dst port — tier-2 ISP", net::ports::kDns,
     flow::kVantageTier2, true},
    {"packets NTP dst port — IXP", net::ports::kNtp, flow::kVantageIxp,
     false},
    {"packets memcached dst port — tier-2 ISP", net::ports::kMemcached,
     flow::kVantageTier2, false},
    {"packets DNS dst port — IXP", net::ports::kDns, flow::kVantageIxp,
     false},
};
constexpr std::size_t kPanelCount = std::size(kPanels);

/// Prints the whole figure from the finished (coverage-stamped) series.
void print_figure(std::span<const stats::BinnedSeries> panel_daily,
                  const stats::BinnedSeries& victim_daily,
                  util::Timestamp takedown) {
  std::array<core::TakedownMetrics, kPanelCount> metrics;
  for (std::size_t i = 0; i < kPanelCount; ++i) {
    metrics[i] = core::takedown_metrics(panel_daily[i], takedown);
  }
  for (std::size_t i = 0; i < kPanelCount; ++i) {
    if (kPanels[i].print_full) {
      print_series(panel_daily[i], kPanels[i].name, takedown);
      std::cout << "  " << metric_string(metrics[i]) << "\n\n";
    } else {
      std::cout << kPanels[i].name << ": " << metric_string(metrics[i])
                << "\n\n";
    }
  }

  // Control: victim-bound amplified traffic (from reflectors).
  const auto victim_metrics = core::takedown_metrics(victim_daily, takedown);
  std::cout << "control: packets FROM reflectors to victims — IXP: "
            << metric_string(victim_metrics) << "\n";

  auto fmt = [](const core::TakedownMetrics& m) {
    return std::string(m.wt30.significant ? "sig, " : "not sig, ") + "red30 " +
           util::format_double(m.wt30.reduction * 100.0, 1) + "%";
  };
  bench::print_comparisons({
      {"memcached to reflectors, IXP", "sig, red30 22.50%", fmt(metrics[0])},
      {"NTP to reflectors, tier-2", "sig, red30 39.68%", fmt(metrics[1])},
      {"DNS to reflectors, tier-2", "sig, red30 81.63%", fmt(metrics[2])},
      {"DNS to reflectors, IXP", "no reduction found", fmt(metrics[5])},
      {"reflector-to-victim traffic", "no significant reduction",
       fmt(victim_metrics)},
  });
}

int run(const bench::RunOptions& options) {
  bench::StreamWorld world(options);
  const util::Timestamp takedown = *world.config.takedown;

  std::vector<core::SeriesSpec> specs;
  specs.reserve(kPanelCount + 1);
  for (const PanelDef& panel : kPanels) {
    core::SeriesSpec spec;
    spec.name = panel.name;
    spec.vantage = panel.vantage;
    spec.kind = core::SeriesSpec::Kind::kToPort;
    spec.port = panel.port;
    specs.push_back(std::move(spec));
  }
  core::SeriesSpec control;
  control.name = "control: packets FROM reflectors — IXP";
  control.vantage = flow::kVantageIxp;
  control.kind = core::SeriesSpec::Kind::kFromReflectors;
  specs.push_back(std::move(control));

  core::StreamAnalysis analysis(world.config.start, world.config.days,
                                std::move(specs));
  if (world.fault_plan) {
    analysis.set_fault_plan(&*world.fault_plan, &world.integrity);
  }
  world.run(analysis);
  analysis.finish();

  std::vector<stats::BinnedSeries> panel_daily;
  panel_daily.reserve(kPanelCount);
  for (std::size_t i = 0; i < kPanelCount; ++i) {
    world.stamp_coverage(analysis.mutable_series(i), kPanels[i].vantage);
    panel_daily.push_back(analysis.series(i));
  }
  world.stamp_coverage(analysis.mutable_series(kPanelCount),
                       flow::kVantageIxp);

  print_figure(panel_daily, analysis.series(kPanelCount), takedown);
  world.write_observability(
      "fig4", world.result_items(analysis.total_kept_flows()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Figure 4",
                      "Traffic to reflectors before/after the takedown");
  return run(bench::parse_run_options(argc, argv));
}
