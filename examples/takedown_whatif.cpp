// Takedown what-if: replay the FBI operation under different assumptions
// and see when a takedown *would* have reduced victim traffic.
//
// The paper's conclusion is that seizing booter front-ends leaves victims
// unprotected because demand migrates to surviving services within days.
// This example varies (a) how quickly users migrate and (b) how much of
// the market is seized, and reports the paper's wt/red metrics for both
// reflector-bound and victim-bound traffic under each scenario.
//
//   $ ./examples/takedown_whatif
#include <iostream>

#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "exec/thread_pool.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

struct Scenario {
  std::string name;
  std::size_t extra_booters;
  std::size_t extra_seized;
};

}  // namespace

int main() {
  const sim::Internet internet{sim::InternetConfig{}};

  const Scenario scenarios[] = {
      {"paper: 15 of 30 booters seized", 26, 13},
      {"small strike: 3 of 30 seized", 26, 1},
      {"near-total: 27 of 30 seized", 26, 25},
  };

  util::Table table({"scenario", "to-reflector NTP", "victim traffic",
                     "attacks/day after vs before"});
  exec::ThreadPool pool(0);  // all cores; the output is pool-size invariant
  for (const Scenario& scenario : scenarios) {
    sim::LandscapeConfig config;
    config.start = util::Timestamp::parse("2018-10-15").value();
    config.days = 100;
    config.takedown = util::Timestamp::parse("2018-12-19").value();
    config.attacks_per_day = 200.0;
    config.extra_booters = scenario.extra_booters;
    config.extra_seized = scenario.extra_seized;
    // Both IXP series ride the run's drain; the materialized result carries
    // the ground-truth attack list read below.
    core::SeriesSpec reflectors;
    reflectors.name = "NTP to reflectors";
    reflectors.port = net::ports::kNtp;
    core::SeriesSpec victims;
    victims.name = "from reflectors";
    victims.kind = core::SeriesSpec::Kind::kFromReflectors;
    core::StreamAnalysis analysis(config.start, config.days,
                                  {reflectors, victims});
    const auto result =
        sim::run_landscape(internet, config, pool, nullptr, &analysis);
    analysis.finish();

    const auto reflector_metrics =
        core::takedown_metrics(analysis.series(0), *config.takedown);
    const auto victim_metrics =
        core::takedown_metrics(analysis.series(1), *config.takedown);

    stats::BinnedSeries attacks_daily(config.start, util::Duration::days(1),
                                      static_cast<std::size_t>(config.days));
    for (const auto& attack : result.attacks) {
      attacks_daily.add(attack.start, 1.0);
    }
    const auto demand_metrics =
        core::takedown_metrics(attacks_daily, *config.takedown);

    auto cell = [](const core::TakedownMetrics& m) {
      return std::string(m.wt30.significant ? "DROP to " : "flat at ") +
             util::format_double(m.wt30.reduction * 100.0, 0) + "%";
    };
    table.row()
        .add(scenario.name)
        .add(cell(reflector_metrics))
        .add(cell(victim_metrics))
        .add(util::format_double(demand_metrics.wt30.reduction * 100.0, 0) +
             "%");
  }
  table.print(std::cout);

  std::cout <<
      "\nReading: even a near-total seizure barely dents victim traffic\n"
      "as long as *any* booter survives to absorb the demand and the\n"
      "reflector infrastructure stays online — the paper's conclusion\n"
      "that front-end seizures alone do not protect victims.\n";
  return 0;
}
