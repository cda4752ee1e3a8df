// Booter (DDoS-for-hire) service models.
//
// The catalog reproduces Table 1 of the paper (four purchased booters,
// their vectors, seizure status and prices); the landscape simulation adds
// further synthetic booters so that the takedown removes 15 of a larger
// market, matching §5. Each booter maintains per-protocol reflector lists
// (sim/reflector.hpp), triggers attacks through them, and continuously
// emits reflector-maintenance traffic — the mechanism behind the paper's
// headline Fig. 4 / Fig. 5 asymmetry (see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "sim/reflector.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::sim {

/// Static description of one booter service.
struct BooterProfile {
  std::string name;
  bool seized = false;  // part of the December 2018 FBI operation
  std::vector<net::AmpVector> vectors;
  double price_basic_usd = 0.0;
  double price_vip_usd = 0.0;

  /// Trigger packet rate the booter's backend drives per attack.
  double basic_pps = 2.2e6 / 100.0;  // victim-side pps / amplification
  double vip_pps = 5.3e6 / 100.0;
  /// Advertised victim-side rates (the paper compares promise vs. reality).
  double advertised_basic_gbps = 10.0;
  double advertised_vip_gbps = 90.0;

  /// Reflector list size per attack-capable vector.
  std::uint32_t list_size = 300;
  ListPolicy list_policy;

  /// Relative popularity (drives market share of attack demand).
  double market_weight = 1.0;

  /// List-maintenance polling: packets per reflector per day the backend
  /// sends to keep its amplifier list fresh (monlist probing, liveness).
  double maintenance_pkts_per_reflector_day = 2000.0;

  /// If seized and the operator re-registers (booter A), service resumes
  /// this long after the takedown.
  std::optional<util::Duration> resurrect_after;

  [[nodiscard]] bool offers(net::AmpVector v) const noexcept {
    for (const auto candidate : vectors) {
      if (candidate == v) return true;
    }
    return false;
  }
};

/// The four purchased booters of Table 1. Checkmark placement for C and D
/// is ambiguous in the paper's table layout; we assume NTP+DNS for both
/// (NTP is stated to be offered by all and DNS is the next most common).
[[nodiscard]] std::vector<BooterProfile> table1_booters();

/// Table 1 booters plus `extra` synthetic booters, `extra_seized` of which
/// are also taken down — totalling the operation's 15 seized services.
[[nodiscard]] std::vector<BooterProfile> market_booters(std::size_t extra,
                                                        std::size_t extra_seized,
                                                        util::Rng& rng);

/// Runtime state of one booter: live reflector lists and activity status.
class BooterService {
 public:
  BooterService(BooterProfile profile,
                const std::unordered_map<net::AmpVector, const ReflectorPool*>& pools,
                util::Rng rng);

  [[nodiscard]] const BooterProfile& profile() const noexcept { return profile_; }

  /// Whether the service accepts attacks / maintains lists at `t`, given
  /// the takedown instant (std::nullopt = no takedown in this scenario).
  [[nodiscard]] bool active_at(util::Timestamp t,
                               std::optional<util::Timestamp> takedown) const noexcept;

  /// Advances reflector lists to `now`. Returns the churn days applied,
  /// summed over the lists.
  std::uint64_t advance_to(util::Timestamp now);

  /// Reflectors used for an attack of `count` amplifiers at the current time.
  [[nodiscard]] std::vector<ReflectorId> attack_reflectors(net::AmpVector vector,
                                                           std::uint32_t count);

  [[nodiscard]] const ReflectorList* list(net::AmpVector vector) const noexcept;

 private:
  BooterProfile profile_;
  std::unordered_map<net::AmpVector, ReflectorList> lists_;
};

}  // namespace booterscope::sim
