// Ablation: honeypot fleet size vs. attack visibility and attribution.
//
// Reproduces the methodology of the paper's reference line of work
// (AmpPot, RAID'15; Krupp et al., RAID'17): honeypots posing as amplifiers
// observe booter trigger streams. We sweep the fleet size and report (a)
// what fraction of wild attacks at least one honeypot sees and (b) how
// accurately attacks can be attributed to booters via honeypot-set
// fingerprints trained on labeled (self-attack-style) purchases.
#include <iostream>
#include <unordered_set>

#include "common.hpp"
#include "core/attribution.hpp"
#include "util/table.hpp"

using namespace booterscope;

int main(int argc, char** argv) {
  bench::print_header("Ablation: honeypots",
                      "Attack visibility and booter attribution vs fleet size");

  const bench::RunOptions options = bench::parse_run_options(argc, argv);
  exec::ThreadPool pool(options.threads);
  const sim::Internet internet{sim::InternetConfig{}};
  util::Table table({"honeypots/vector", "attacks seen", "visibility",
                     "attributed", "precision"});

  for (const std::uint32_t fleet : {200u, 800u, 2'400u}) {
    sim::LandscapeConfig config;
    config.start = util::Timestamp::parse("2018-11-01").value();
    config.days = 30;
    config.takedown = std::nullopt;
    config.attacks_per_day = 150.0;
    config.honeypots_per_vector = fleet;
    const auto result = sim::run_landscape(internet, config, pool);

    const auto attacks = core::group_observations(result.honeypot_log);

    // Train fingerprints on the first half of each booter's observed
    // attacks (standing in for labeled purchases), evaluate on the rest.
    std::vector<std::string> truth_names;
    truth_names.reserve(result.market.size());
    for (const auto& booter : result.market) truth_names.push_back(booter.name);

    std::vector<std::pair<std::string, core::HoneypotAttack>> labeled;
    std::vector<core::HoneypotAttack> wild;
    std::unordered_map<std::size_t, std::size_t> seen_per_booter;
    for (const auto& attack : attacks) {
      auto& seen = seen_per_booter[attack.truth_booter];
      if (seen++ % 2 == 0) {
        labeled.emplace_back(truth_names[attack.truth_booter], attack);
      } else {
        wild.push_back(attack);
      }
    }
    const auto fingerprints = core::build_fingerprints(labeled);
    const auto report =
        core::evaluate_attribution(wild, fingerprints, truth_names, 0.6);

    const double visibility =
        result.attacks.empty()
            ? 0.0
            : static_cast<double>(attacks.size()) /
                  static_cast<double>(result.attacks.size());
    table.row()
        .add(std::uint64_t{fleet})
        .add(static_cast<std::uint64_t>(attacks.size()))
        .add(util::format_double(visibility * 100.0, 1) + "%")
        .add(util::format_double(report.coverage() * 100.0, 1) + "%")
        .add(util::format_double(report.precision() * 100.0, 1) + "%");
  }
  table.print(std::cout);

  bench::print_comparisons({
      {"honeypots see booter attacks", "AmpPot: 21 honeypots, ~million attacks",
       "visibility grows with fleet size (pool share)"},
      {"attacks linkable to booters", "Krupp et al.: majority attributable",
       "fingerprint attribution with high precision at moderate coverage"},
      {"reflector identification is hard for victims",
       "§3.2: lists rotate/overlap; victims cannot fingerprint",
       "attribution needs reflector-side (honeypot) vantage, not victim-side"},
  });
  return 0;
}
