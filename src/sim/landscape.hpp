// The 122-day DDoS landscape simulation behind §4 and §5.
//
// Generates the sampled flow exports of the three vantage points (IXP,
// tier-1, tier-2) over the study window, from four mechanistic traffic
// components:
//   1. victim-bound amplified attack traffic, driven by a seasonal
//      attack-demand process over a heavy-tailed victim/intensity
//      population, executed by the booter market;
//   2. trigger traffic (spoofed victim->reflector requests) from booter
//      backends, proportional to attack demand;
//   3. reflector-maintenance traffic (liveness polling/scanning of
//      amplifier lists) from booter backends, proportional to booter
//      infrastructure — this is what the takedown switches off;
//   4. benign baseline traffic on the same ports (NTP clients, DNS
//      resolvers, research scanners), unaffected by the takedown.
// The takedown event deactivates the seized booters; their *demand*
// migrates to the surviving market within days (§5.1 observed booter A
// back online after 3 days), which is why victim traffic shows no
// significant reduction while reflector-bound traffic does.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/thread_pool.hpp"
#include "flow/batch.hpp"
#include "flow/store.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "sim/booter.hpp"
#include "sim/honeypot.hpp"
#include "sim/internet.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::sim {

struct LandscapeConfig {
  std::uint64_t seed = 7;
  util::Timestamp start;                     // default 2018-09-30
  int days = 122;
  std::optional<util::Timestamp> takedown;   // default 2018-12-19

  /// Attack demand (already scaled; see DESIGN.md scale note).
  double attacks_per_day = 300.0;

  /// Victim population and repeat-victimization skew.
  std::uint32_t victim_population = 30000;
  double victim_zipf = 0.9;

  /// Amplifiers per attack: bounded Pareto (most victims see <10 sources,
  /// Fig. 2(c); tail reaches thousands, Fig. 2(b)).
  double reflector_count_min = 3.0;
  double reflector_count_cap = 9000.0;
  double reflector_count_alpha = 1.0;

  /// Per-reflector victim-side rate: lognormal, ~30 Mbps mean.
  double per_reflector_mbps_mu = 2.8904;   // ln(18)
  double per_reflector_mbps_sigma = 1.0;

  /// Attack duration: lognormal around 6 minutes, capped at 1 hour.
  double duration_mu = 5.886;  // ln(360 s)
  double duration_sigma = 0.7;
  double duration_cap_s = 3600.0;

  /// Vector mix (NTP dominates, §4).
  double share_ntp = 0.70, share_dns = 0.14, share_cldap = 0.10;
  // share_memcached = remainder

  /// Exporter sampling rates.
  std::uint32_t ixp_sampling = 10'000;
  std::uint32_t tier1_sampling = 2'000;
  std::uint32_t tier2_sampling = 2'000;

  /// Per-vantage observation windows (§2): the three data sets cover
  /// different spans — notably the tier-1 trace only covers Dec 12-30,
  /// which is why the paper's Fig. 4 uses the IXP and tier-2 ISP only.
  struct Window {
    util::Timestamp start;
    util::Timestamp end;
    [[nodiscard]] bool contains(util::Timestamp t) const noexcept {
      return t >= start && t < end;
    }
  };
  std::optional<Window> ixp_window;    // default Oct 27 2018 - Jan 31 2019
  std::optional<Window> tier1_window;  // default Dec 12 - Dec 30 2018
  std::optional<Window> tier2_window;  // default Sep 27 2018 - Feb 2 2019

  /// Booter market beyond Table 1 (total seized = 2 + extra_seized = 15).
  std::size_t extra_booters = 26;
  std::size_t extra_seized = 13;
  /// When true (the observed reality), users of seized booters move to
  /// surviving services; when false, their attack demand simply vanishes
  /// with the seizure (ablation: the world in which a front-end takedown
  /// would actually have protected victims).
  bool demand_migration = true;

  /// Reflector populations per protocol (scaled from 9M NTP on shodan.io).
  std::uint32_t ntp_population = 90'000;
  std::uint32_t dns_population = 200'000;
  std::uint32_t cldap_population = 25'000;
  std::uint32_t memcached_population = 8'000;

  /// Benign baseline, packets/s on each vector's port across the whole
  /// inter-domain mix (pre-sampling), per vantage weight below.
  double benign_ntp_pps = 24'000.0;
  double benign_dns_pps = 80'000.0;
  double benign_cldap_pps = 700.0;
  double benign_memcached_pps = 500.0;
  /// Research/abuse scanners probing reflector ports (constant).
  double scanner_pps = 2'500.0;
  /// Day-to-day lognormal sigma of the benign baselines (DNS baselines are
  /// noisier: resolver caches, CDN shifts).
  double benign_noise_sigma = 0.08;
  double benign_dns_noise_sigma = 0.20;

  /// Booter infrastructure (list maintenance + amplifier re-scanning)
  /// traffic to reflector ports, in packets/day per unit of market weight.
  /// Calibrated so the per-vector red30/red40 ratios land near the paper's
  /// (see DESIGN.md §5): dominant for NTP/Memcached, minor next to the
  /// benign baseline for DNS.
  double maintenance_base_ntp = 2.4e8;
  double maintenance_base_dns = 8.0e6;
  double maintenance_base_cldap = 2.0e6;
  double maintenance_base_memcached = 8.0e7;
  /// Global scale factor on the above (ablation knob).
  double maintenance_scale = 1.0;

  /// AmpPot-style honeypots deployed into each protocol's amplifier pool
  /// (0 disables the instrumentation). See sim/honeypot.hpp.
  std::uint32_t honeypots_per_vector = 0;
  /// Share of honeypots seeded into the shared public list head.
  double honeypot_public_share = 0.4;

  /// Alternative intervention (the paper's concluding recommendation):
  /// progressive *reflector remediation* — operators patch/filter open
  /// amplifiers so they stop reflecting. Starting at `remediation_start`,
  /// a `remediation_per_day` fraction of each pool stops amplifying per
  /// day. Booters keep polling dead amplifiers for a while (their
  /// maintenance traffic persists), but attack output shrinks — the
  /// mirror image of the domain takedown.
  std::optional<util::Timestamp> remediation_start;
  double remediation_per_day = 0.03;

  [[nodiscard]] double maintenance_base(net::AmpVector v) const noexcept {
    switch (v) {
      case net::AmpVector::kNtp: return maintenance_base_ntp;
      case net::AmpVector::kDns: return maintenance_base_dns;
      case net::AmpVector::kCldap: return maintenance_base_cldap;
      case net::AmpVector::kMemcached: return maintenance_base_memcached;
    }
    return 0.0;
  }
};

/// Ground truth of one simulated attack (for validation and tests).
struct AttackRecord {
  util::Timestamp start;
  util::Duration duration;
  net::Ipv4Addr victim;
  topo::AsId victim_as = topo::kInvalidAs;
  std::size_t booter_index = 0;
  net::AmpVector vector = net::AmpVector::kNtp;
  double victim_gbps = 0.0;      // plateau intensity
  std::uint32_t reflector_count = 0;
};

struct VantageData {
  flow::FlowStore store;
  std::uint32_t sampling_rate = 1;
};

/// Deterministic work counters of one engine run (DESIGN.md §9). Pure
/// functions of the config, never of the machine or pool size, so perf
/// ledgers carry them and benchdiff gates them exactly, like `items`.
struct EngineWork {
  std::uint64_t market_builds = 0;  // build_market calls
  std::uint64_t churn_days = 0;     // ReflectorList::churn calls
};

struct LandscapeResult {
  LandscapeConfig config;
  VantageData ixp;
  VantageData tier1;
  VantageData tier2;
  std::vector<AttackRecord> attacks;  // ground truth
  std::vector<BooterProfile> market;  // the simulated booter market
  /// Honeypot sightings (empty unless honeypots_per_vector > 0).
  std::vector<HoneypotObservation> honeypot_log;
  EngineWork work;
};

/// Runs the full simulation and materializes it: run_landscape_stream
/// (sim/landscape_stream.hpp) over `pool`, drained into a
/// flow::CollectingSink. Deterministic for a given config, and
/// byte-identical for every pool size — a serial run is a pool of 1. When a
/// `tracer` is passed, the engine's stages (day shards, drain) are timed
/// into it; per-vantage emit/drop counters always go to the global obs
/// registry. A non-null `analysis` (typically a core::StreamAnalysis) rides
/// the same drain behind the collector, so a caller that reads flows or
/// ground truth gets its series from the one pass too.
[[nodiscard]] LandscapeResult run_landscape(
    const Internet& internet, const LandscapeConfig& config,
    exec::ThreadPool& pool, obs::StageTracer* tracer = nullptr,
    flow::FlowBatchSink* analysis = nullptr);

/// Config with the paper's study window (Sep 30 2018 - Jan 30 2019,
/// takedown Dec 19 2018).
[[nodiscard]] LandscapeConfig paper_landscape_config();

}  // namespace booterscope::sim
