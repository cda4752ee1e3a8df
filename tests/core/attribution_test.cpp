#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include "sim/internet.hpp"
#include "sim/landscape.hpp"

namespace booterscope::core {
namespace {

using util::Duration;
using util::Timestamp;

sim::HoneypotObservation observe(std::uint32_t victim, const char* when,
                                 std::uint32_t honeypot,
                                 std::size_t booter = 0,
                                 int duration_minutes = 5) {
  sim::HoneypotObservation observation;
  observation.vector = net::AmpVector::kNtp;
  observation.honeypot = honeypot;
  observation.victim = net::Ipv4Addr{victim};
  observation.start = Timestamp::parse(when).value();
  observation.duration = Duration::minutes(duration_minutes);
  observation.truth_booter = booter;
  return observation;
}

TEST(Grouping, MergesOverlappingObservations) {
  std::vector<sim::HoneypotObservation> log = {
      observe(9, "2018-11-01T10:00:00", 1),
      observe(9, "2018-11-01T10:02:00", 2),
      observe(9, "2018-11-01T10:04:00", 3),
  };
  const auto attacks = group_observations(log);
  ASSERT_EQ(attacks.size(), 1u);
  EXPECT_EQ(attacks[0].honeypots.size(), 3u);
  EXPECT_EQ(attacks[0].victim, net::Ipv4Addr{9});
}

TEST(Grouping, SplitsByGapVictimAndVector) {
  std::vector<sim::HoneypotObservation> log = {
      observe(9, "2018-11-01T10:00:00", 1),
      observe(9, "2018-11-01T12:00:00", 1),   // 2h later: new attack
      observe(10, "2018-11-01T10:00:00", 1),  // other victim
  };
  log.push_back(observe(9, "2018-11-01T10:00:00", 7));
  log.back().vector = net::AmpVector::kDns;  // other vector
  const auto attacks = group_observations(log);
  EXPECT_EQ(attacks.size(), 4u);
}

TEST(Fingerprints, UnionPerBooter) {
  HoneypotAttack a;
  a.honeypots = {1, 2};
  HoneypotAttack b;
  b.honeypots = {2, 3};
  HoneypotAttack c;
  c.honeypots = {9};
  const auto fingerprints = build_fingerprints(
      {{"B", a}, {"B", b}, {"C", c}});
  ASSERT_EQ(fingerprints.size(), 2u);
  EXPECT_EQ(fingerprints[0].booter, "B");
  EXPECT_EQ(fingerprints[0].honeypots,
            (std::unordered_set<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(fingerprints[1].honeypots,
            (std::unordered_set<std::uint32_t>{9}));
}

TEST(Attribute, PicksBestCoveringFingerprint) {
  const std::vector<BooterFingerprint> fingerprints = {
      {"B", {1, 2, 3, 4}},
      {"C", {4, 5, 6}},
  };
  HoneypotAttack attack;
  attack.honeypots = {1, 2, 4};
  const Attribution result = attribute(attack, fingerprints, 0.5);
  ASSERT_TRUE(result.fingerprint.has_value());
  EXPECT_EQ(*result.fingerprint, 0u);
  EXPECT_GT(result.confidence, 0.9);  // all three honeypots covered by B
}

TEST(Attribute, SharedHoneypotsCarryLittleWeight) {
  // Honeypot 4 is in both fingerprints (public-list amplifier); honeypot 6
  // is unique to C. An attack hitting {4, 6} must go to C even though B
  // covers one of the two.
  const std::vector<BooterFingerprint> fingerprints = {
      {"B", {1, 2, 3, 4}},
      {"C", {4, 5, 6}},
  };
  HoneypotAttack attack;
  attack.honeypots = {4, 6};
  const Attribution result = attribute(attack, fingerprints, 0.3);
  ASSERT_TRUE(result.fingerprint.has_value());
  EXPECT_EQ(*result.fingerprint, 1u);
}

TEST(Attribute, LowConfidenceIsUnattributed) {
  const std::vector<BooterFingerprint> fingerprints = {{"B", {1, 2}}};
  HoneypotAttack attack;
  attack.honeypots = {7, 8, 9};
  const Attribution result = attribute(attack, fingerprints, 0.5);
  EXPECT_FALSE(result.fingerprint.has_value());
  HoneypotAttack empty;
  EXPECT_FALSE(attribute(empty, fingerprints).fingerprint.has_value());
}

TEST(Evaluate, ReportsCoverageAndPrecision) {
  const std::vector<BooterFingerprint> fingerprints = {
      {"B", {1, 2, 3}},
      {"C", {7, 8, 9}},
  };
  const std::vector<std::string> names = {"B", "C"};
  std::vector<HoneypotAttack> attacks(3);
  attacks[0].honeypots = {1, 2};
  attacks[0].truth_booter = 0;  // correctly attributed to B
  attacks[1].honeypots = {7, 9};
  attacks[1].truth_booter = 0;  // attributed to C but truly B: wrong
  attacks[2].honeypots = {42};
  attacks[2].truth_booter = 1;  // unattributed
  const auto report = evaluate_attribution(attacks, fingerprints, names, 0.5);
  EXPECT_EQ(report.attacks, 3u);
  EXPECT_EQ(report.attributed, 2u);
  EXPECT_EQ(report.correct, 1u);
  EXPECT_NEAR(report.coverage(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(report.precision(), 0.5, 1e-9);
}

TEST(HoneypotPipeline, EndToEndOnSimulatedLandscape) {
  const sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.start = Timestamp::parse("2018-11-01").value();
  config.days = 10;
  config.takedown = std::nullopt;
  config.attacks_per_day = 60.0;
  config.honeypots_per_vector = 1'500;
  exec::ThreadPool pool(1);
  const auto result = sim::run_landscape(internet, config, pool);
  ASSERT_FALSE(result.honeypot_log.empty());

  const auto attacks = group_observations(result.honeypot_log);
  ASSERT_GT(attacks.size(), 20u);
  // Honeypot-observed attacks correspond to real ground-truth victims.
  std::unordered_set<std::uint32_t> truth_victims;
  for (const auto& attack : result.attacks) {
    truth_victims.insert(attack.victim.value());
  }
  for (const auto& attack : attacks) {
    ASSERT_TRUE(truth_victims.contains(attack.victim.value()));
  }

  // Self-training attribution beats chance clearly.
  std::vector<std::string> names;
  for (const auto& booter : result.market) names.push_back(booter.name);
  std::vector<std::pair<std::string, HoneypotAttack>> labeled;
  std::vector<HoneypotAttack> wild;
  std::unordered_map<std::size_t, std::size_t> seen;
  for (const auto& attack : attacks) {
    if (seen[attack.truth_booter]++ % 2 == 0) {
      labeled.emplace_back(names[attack.truth_booter], attack);
    } else {
      wild.push_back(attack);
    }
  }
  const auto fingerprints = build_fingerprints(labeled);
  const auto report = evaluate_attribution(wild, fingerprints, names, 0.6);
  ASSERT_GT(report.attributed, 10u);
  // Chance precision over a ~30-booter market is ~3-10% by weight.
  EXPECT_GT(report.precision(), 0.3);
}

TEST(HoneypotPipeline, DisabledByDefault) {
  const sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.start = Timestamp::parse("2018-11-01").value();
  config.days = 3;
  config.takedown = std::nullopt;
  config.attacks_per_day = 30.0;
  exec::ThreadPool pool(1);
  const auto result = sim::run_landscape(internet, config, pool);
  EXPECT_TRUE(result.honeypot_log.empty());
}

}  // namespace
}  // namespace booterscope::core
