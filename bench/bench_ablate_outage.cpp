// Ablation: vantage outages vs. takedown-verdict stability.
//
// Real flow archives have holes — exporters reboot, collectors fill disks,
// links flap. This sweep injects day-level vantage outages at 0..30% and
// asks whether the paper's wt30/wt40 verdicts survive: a naive analysis
// reads an outage day as a traffic drop and can hallucinate (or mask) a
// takedown effect, while the gap-aware analysis excludes under-covered
// days via the series' coverage mask and reports the effective window it
// actually compared. The run's integrity ledger (offered == kept +
// dropped-by-outage) lands in OBS_ablate_outage.manifest.json.
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/takedown.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

std::string verdict(const core::WindowMetrics& m) {
  return m.significant ? "sig" : "not sig";
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("Ablation: vantage outages",
                      "Takedown verdict stability under missing telemetry");

  bench::RunOptions options = bench::parse_run_options(argc, argv);
  // The sweep injects its own outage schedules below; a profile passed on
  // the command line would double-apply.
  options.fault_profile = "none";
  bench::LandscapeWorld world(options);
  const auto& cfg = world.result.config;
  const util::Timestamp takedown = *cfg.takedown;
  const std::uint64_t fault_seed = options.fault_seed;

  struct Series {
    const char* name;
    const flow::FlowList* flows;
    std::uint16_t port;
    std::size_t vantage;
  };
  const Series series[] = {
      {"NTP to reflectors, tier-2", &world.result.tier2.store.flows(),
       net::ports::kNtp, bench::LandscapeWorld::kTier2},
      {"memcached to reflectors, IXP", &world.result.ixp.store.flows(),
       net::ports::kMemcached, bench::LandscapeWorld::kIxp},
  };

  fault::IntegrityTally tally;
  const double fractions[] = {0.0, 0.05, 0.10, 0.20, 0.30};

  for (const Series& s : series) {
    std::cout << s.name << ":\n";
    util::Table table({"outage", "flows dropped", "days excluded",
                       "wt30 naive", "wt30 gap-aware", "red30 gap-aware",
                       "wt40 gap-aware", "eff. window 30"});
    bool wt30_clean = false;
    bool wt40_clean = false;
    bool wt30_stable = true;
    bool wt40_stable = true;
    for (const double fraction : fractions) {
      const fault::FaultPlan plan(fault_seed,
                                  fault::FaultProfile::outage_only(fraction),
                                  cfg.start, cfg.days, 3);
      flow::FlowList kept = *s.flows;
      std::erase_if(kept, [&](const flow::FlowRecord& f) {
        return plan.out_at(s.vantage, f.first);
      });
      const std::uint64_t dropped =
          static_cast<std::uint64_t>(s.flows->size() - kept.size());
      tally.offered += s.flows->size();
      tally.dropped_by_fault += dropped;
      tally.decoded_clean += kept.size();

      auto daily =
          core::daily_packets_to_port(kept, s.port, cfg.start, cfg.days);
      plan.apply_coverage(daily, s.vantage);
      // Naive: min_coverage 0 keeps every day, outages and all.
      const auto naive = core::takedown_metrics(daily, takedown, 0.05, 0.0);
      const auto aware = core::takedown_metrics(daily, takedown);

      if (fraction == 0.0) {
        wt30_clean = aware.wt30.significant;
        wt40_clean = aware.wt40.significant;
      } else {
        wt30_stable = wt30_stable && aware.wt30.significant == wt30_clean;
        wt40_stable = wt40_stable && aware.wt40.significant == wt40_clean;
      }

      table.row()
          .add(util::format_double(fraction * 100.0, 0) + "%")
          .add(util::format_count(static_cast<double>(dropped)))
          .add(static_cast<std::uint64_t>(aware.wt30.excluded_days))
          .add(verdict(naive.wt30))
          .add(verdict(aware.wt30))
          .add(util::format_double(aware.wt30.reduction * 100.0, 1) + "%")
          .add(verdict(aware.wt40))
          .add(std::to_string(aware.wt30.effective_before_days) + "+" +
               std::to_string(aware.wt30.effective_after_days));
    }
    table.print(std::cout, 2);
    std::cout << "  wt30 verdict " << (wt30_stable ? "STABLE" : "UNSTABLE")
              << " across 0-30% outages; wt40 "
              << (wt40_stable ? "STABLE" : "UNSTABLE") << "\n\n";
  }

  bench::print_comparisons({
      {"verdict under missing days", "n/a (paper assumes full archives)",
       "gap-aware wt30/wt40 match the clean verdict through 30% outages"},
      {"what naive analysis risks", "n/a",
       "outage days read as traffic drops unless excluded by coverage"},
  });

  bench::write_observability("ablate_outage", cfg, &world.tracer, world.pool.size(),
                             &tally, "outage-sweep", fault_seed);
  bench::write_perf_ledger("ablate_outage", cfg, &world.tracer, &world.pool,
                           world.run_wall_nanos, world.result_items(),
                           world.result.work, "outage-sweep", fault_seed,
                           world.sampler.get());
  bench::write_timeline("ablate_outage", world.tracer, world.write_trace,
                        world.sampler.get(), world.watchdog.get());
  return 0;
}
