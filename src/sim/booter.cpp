#include "sim/booter.hpp"

#include <cassert>

namespace booterscope::sim {

namespace {

using net::AmpVector;

[[nodiscard]] ListPolicy default_policy() {
  ListPolicy policy;
  policy.daily_churn = 0.02;
  policy.public_share = 0.2;
  policy.public_list_size = 800;
  return policy;
}

}  // namespace

std::vector<BooterProfile> table1_booters() {
  std::vector<BooterProfile> booters(4);

  // Booter A: seized; all four vectors; $8.00 / $250. Re-appeared under a
  // new domain three days after the takedown (§5.1).
  booters[0].name = "A";
  booters[0].seized = true;
  booters[0].vectors = {AmpVector::kNtp, AmpVector::kDns, AmpVector::kCldap,
                        AmpVector::kMemcached};
  booters[0].price_basic_usd = 8.00;
  booters[0].price_vip_usd = 250.00;
  booters[0].basic_pps = 7078e6 / 8.0 / 490.0 / 100.0;  // peaks ~7 Gbps amplified
  booters[0].vip_pps = booters[0].basic_pps * 2.4;
  booters[0].list_size = 350;
  booters[0].list_policy = default_policy();
  booters[0].market_weight = 3.0;
  booters[0].resurrect_after = util::Duration::days(3);

  // Booter B: seized; all four vectors; $19.83 / $178.84. Stable reflector
  // list with ~30% churn over two weeks, then a sudden full list switch
  // (Fig. 1(c) marks (1)); VIP at 5.3M pps vs 2.2M pps non-VIP.
  booters[1].name = "B";
  booters[1].seized = true;
  booters[1].vectors = {AmpVector::kNtp, AmpVector::kDns, AmpVector::kCldap,
                        AmpVector::kMemcached};
  booters[1].price_basic_usd = 19.83;
  booters[1].price_vip_usd = 178.84;
  booters[1].basic_pps = 1.8e6 / 100.0;
  booters[1].vip_pps = 5.0e6 / 100.0;
  booters[1].advertised_vip_gbps = 90.0;  // "80-100 Gbps" promised
  booters[1].advertised_basic_gbps = 10.0;  // "8-12 Gbps"
  booters[1].list_size = 380;
  booters[1].list_policy = default_policy();
  booters[1].list_policy.daily_churn = 0.3 / 14.0;
  booters[1].list_policy.has_jump = true;
  booters[1].list_policy.jump_at =
      util::Timestamp::parse("2018-06-13").value();
  booters[1].market_weight = 4.0;

  // Booter C: not seized; NTP + DNS; $14.00 / $89. Churning list over a
  // long period (Fig. 1(c) mark (2)).
  booters[2].name = "C";
  booters[2].seized = false;
  booters[2].vectors = {AmpVector::kNtp, AmpVector::kDns};
  booters[2].price_basic_usd = 14.00;
  booters[2].price_vip_usd = 89.00;
  booters[2].basic_pps = 0.4e6 / 100.0;   // ~1.6 Gbps NTP attacks
  booters[2].vip_pps = 0.9e6 / 100.0;
  booters[2].list_size = 250;
  booters[2].list_policy = default_policy();
  booters[2].list_policy.daily_churn = 0.08;
  booters[2].market_weight = 2.0;

  // Booter D: not seized; NTP + DNS; $19.99 / $149.99.
  booters[3].name = "D";
  booters[3].seized = false;
  booters[3].vectors = {AmpVector::kNtp, AmpVector::kDns};
  booters[3].price_basic_usd = 19.99;
  booters[3].price_vip_usd = 149.99;
  booters[3].basic_pps = 0.25e6 / 100.0;  // ~1 Gbps NTP attacks
  booters[3].vip_pps = 0.6e6 / 100.0;
  booters[3].list_size = 280;
  booters[3].list_policy = default_policy();
  booters[3].market_weight = 2.0;

  return booters;
}

std::vector<BooterProfile> market_booters(std::size_t extra,
                                          std::size_t extra_seized,
                                          util::Rng& rng) {
  assert(extra_seized <= extra);
  std::vector<BooterProfile> booters = table1_booters();
  for (std::size_t i = 0; i < extra; ++i) {
    BooterProfile b;
    b.name = "M" + std::to_string(i + 1);
    b.seized = i < extra_seized;
    b.vectors = {AmpVector::kNtp, AmpVector::kDns};
    if (rng.chance(b.seized ? 0.6 : 0.3)) b.vectors.push_back(AmpVector::kCldap);
    // Memcached was concentrated at the premium (seized) services; the
    // paper observes that memcached amplification collapsed hardest after
    // the takedown and that its amplifier base is short-lived (§3.2 takeaway).
    if (rng.chance(b.seized ? 0.7 : 0.1)) {
      b.vectors.push_back(AmpVector::kMemcached);
    }
    b.price_basic_usd = rng.uniform(5.0, 30.0);
    b.price_vip_usd = rng.uniform(80.0, 300.0);
    b.basic_pps = rng.uniform(0.2e6, 2.5e6) / 100.0;
    b.vip_pps = b.basic_pps * rng.uniform(1.8, 2.8);
    b.list_size = static_cast<std::uint32_t>(rng.range(120, 500));
    b.list_policy = default_policy();
    b.list_policy.daily_churn = rng.uniform(0.01, 0.1);
    // Seized booters were the popular ones (high Alexa ranks, §5.1): give
    // them systematically larger market weights.
    b.market_weight = b.seized ? rng.uniform(2.0, 5.0) : rng.uniform(0.3, 2.0);
    b.maintenance_pkts_per_reflector_day = rng.uniform(1000.0, 4000.0);
    booters.push_back(std::move(b));
  }
  return booters;
}

BooterService::BooterService(
    BooterProfile profile,
    const std::unordered_map<net::AmpVector, const ReflectorPool*>& pools,
    util::Rng rng)
    : profile_(std::move(profile)) {
  for (const AmpVector vector : profile_.vectors) {
    const auto it = pools.find(vector);
    assert(it != pools.end());
    // CLDAP attacks in the paper used an order of magnitude more
    // reflectors than NTP (3519 vs. ~100-1000, §3.2): amplifier lists for
    // CLDAP circulate in bulk, so scale the list accordingly.
    const std::uint32_t size =
        vector == AmpVector::kCldap ? profile_.list_size * 10 : profile_.list_size;
    lists_.emplace(vector, ReflectorList(*it->second, size, profile_.list_policy,
                                         rng.fork(to_string(vector))));
  }
}

bool BooterService::active_at(
    util::Timestamp t, std::optional<util::Timestamp> takedown) const noexcept {
  if (!takedown || !profile_.seized || t < *takedown) return true;
  if (profile_.resurrect_after && t >= *takedown + *profile_.resurrect_after) {
    return true;  // back under a new domain
  }
  return false;
}

std::uint64_t BooterService::advance_to(util::Timestamp now) {
  // Each ReflectorList owns its own Rng stream, so advancing them in any
  // order produces identical per-list states; nothing is emitted here.
  std::uint64_t churn_days = 0;
  // bslint:allow(BS004 per-list advance with independent Rng streams)
  for (auto& [vector, list] : lists_) churn_days += list.advance_to(now);
  return churn_days;
}

std::vector<ReflectorId> BooterService::attack_reflectors(net::AmpVector vector,
                                                          std::uint32_t count) {
  const auto it = lists_.find(vector);
  if (it == lists_.end()) return {};
  return it->second.select(count);
}

const ReflectorList* BooterService::list(net::AmpVector vector) const noexcept {
  const auto it = lists_.find(vector);
  return it == lists_.end() ? nullptr : &it->second;
}

}  // namespace booterscope::sim
