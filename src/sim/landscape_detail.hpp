// Internal generation machinery of the landscape engine: defined in
// landscape.cpp, driven per day shard by landscape_stream.cpp. Not part of
// the public surface: include only from sim/*.cpp and the sim tests.
//
// The generation primitives are parameterized by a [from, to) time range
// and an explicit Rng; the engine calls them per day shard with
// counter-based Rng::split streams, making the output independent of
// thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flow/record.hpp"
#include "obs/metrics.hpp"
#include "sim/booter.hpp"
#include "sim/honeypot.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::sim::detail {

/// Per-vantage view of one (src AS, dst AS) unidirectional path.
struct Visibility {
  bool visible = false;
  net::Asn peer;  // adjacent AS handing traffic into the vantage network
};

struct PathView {
  Visibility ixp;
  Visibility tier1;
  Visibility tier2;
  bool reachable = false;
};

/// Caches vantage visibility per (src, dst) AS pair. Each generation
/// context owns one; every day shard keeps its own, so
/// the cache is never shared across threads.
class PathClassifier {
 public:
  explicit PathClassifier(const Internet& internet) : internet_(&internet) {}

  const PathView& view(topo::AsId src, topo::AsId dst);

 private:
  [[nodiscard]] PathView classify(topo::AsId src, topo::AsId dst) const;

  const Internet* internet_;
  std::unordered_map<std::uint64_t, PathView> cache_;
};

/// Per-vantage emit/drop accounting in the global registry. `emits` counts
/// every visible-path emission attempt; it equals
///   window_drops + zero_sample_drops + flows
/// — the flow-count conservation identity carried into run manifests.
/// `offered` is pre-sampling truth on visible in-window paths; `sampled` is
/// what the vantage exported; their gap is the sampler loss the paper's
/// §3.2 caveat is about.
struct VantageMetrics {
  obs::Counter* emits;
  obs::Counter* flows;
  obs::Counter* offered_packets;
  obs::Counter* sampled_packets;
  obs::Counter* zero_sample_drops;  // emits whose Poisson draw came up 0
  obs::Counter* window_drops;       // emits outside the vantage's window

  explicit VantageMetrics(const char* vantage);
};

/// Mutable generation context: flow sinks, path cache and the sampling RNG.
/// The engine owns one per day shard (with a split()-derived rng).
struct Context {
  const Internet* internet;
  const LandscapeConfig* config;
  PathClassifier classifier;
  util::Rng rng;
  flow::FlowList ixp_flows;
  flow::FlowList tier1_flows;
  flow::FlowList tier2_flows;
  VantageMetrics ixp_metrics{"ixp"};
  VantageMetrics tier1_metrics{"tier1"};
  VantageMetrics tier2_metrics{"tier2"};
  obs::Counter* unreachable_drops =
      &obs::metrics().counter("booterscope_landscape_unreachable_drops_total");

  explicit Context(const Internet& net, const LandscapeConfig& cfg,
                   util::Rng context_rng)
      : internet(&net), config(&cfg), classifier(net), rng(context_rng) {}

  /// Emits one sampled flow record to every vantage that sees the path.
  void emit(topo::AsId src_as, net::Ipv4Addr src, topo::AsId dst_as,
            net::Ipv4Addr dst, std::uint16_t src_port, std::uint16_t dst_port,
            std::uint64_t true_packets, std::uint32_t packet_bytes,
            util::Timestamp first, util::Timestamp last);
};

/// Demand seasonality: weekday x hour-of-day multiplier, mean ~1.
[[nodiscard]] double seasonality(util::Timestamp t) noexcept;

[[nodiscard]] net::AmpVector draw_vector(const LandscapeConfig& config,
                                         util::Rng& rng);

/// Stable pseudo-random ephemeral port for an entity pair.
[[nodiscard]] std::uint16_t ephemeral_port(std::uint64_t salt) noexcept;

struct MarketRuntime {
  std::vector<BooterProfile> profiles;
  std::vector<BooterService> services;
  std::vector<Internet::Host> backends;
};

using ReflectorPools = std::unordered_map<net::AmpVector, ReflectorPool>;

/// The per-protocol amplifier populations of this config.
[[nodiscard]] ReflectorPools build_pools(const LandscapeConfig& config);

/// Builds the booter market (profiles, live services, backend hosts) from
/// `market_rng`. Deterministic: every caller that feeds an identically
/// seeded rng gets an identical market, which is how the engine
/// replicates per-shard market state.
[[nodiscard]] MarketRuntime build_market(const Internet& internet,
                                         const LandscapeConfig& config,
                                         const ReflectorPools& pools,
                                         util::Rng& market_rng);

/// The booter market of one run, built once and stepped forward one day at
/// a time (DESIGN.md §9). After advance_to(day) the market equals what a
/// fresh build_market + advance_to(start) + advance_to(day) replay reaches,
/// list for list and Rng state for Rng state, for one churn day per list
/// instead of `day - start` of them. The engine hands each day shard its
/// own copy of that state.
class MarketCursor {
 public:
  /// Takes a freshly built market and advances it to `start`.
  MarketCursor(MarketRuntime market, util::Timestamp start);

  /// Steps to `day` (never backwards). Returns the churn days applied.
  std::uint64_t advance_to(util::Timestamp day);

  [[nodiscard]] const MarketRuntime& market() const noexcept { return market_; }

 private:
  MarketRuntime market_;
  /// Post-start copies of the services whose full-list switch lies ahead
  /// of `start` (booter B's, for windows opening before 2018-06-13). A
  /// fresh replay resamples such a service straight from its post-start
  /// state on every day past the switch and never churns it again there;
  /// stepping would churn up to the switch first and draw a different
  /// list. Days past the switch are therefore served from this copy.
  std::vector<std::optional<BooterService>> pending_switch_;
};

/// Picks an active booter offering `vector`, weighted by market share.
/// Returns profiles.size() when no booter qualifies.
[[nodiscard]] std::size_t pick_booter(const MarketRuntime& market,
                                      net::AmpVector vector, util::Timestamp t,
                                      std::optional<util::Timestamp> takedown,
                                      util::Rng& rng);

/// Attack + trigger traffic for launches in [from, to). `horizon` caps the
/// per-minute emission loop (attacks running past the study window stop
/// there). The engine passes one day and a split("attacks", day) stream.
void generate_attack_traffic(Context& ctx, MarketRuntime& market,
                             const ReflectorPools& pools,
                             const HoneypotDeployment& honeypots,
                             util::Timestamp from, util::Timestamp to,
                             util::Timestamp horizon, util::Rng rng,
                             std::vector<AttackRecord>& ground_truth,
                             std::vector<HoneypotObservation>& honeypot_log);

/// Reflector-maintenance traffic of one (booter, day) cell — the unit the
/// engine assigns its per-(day, booter) RNG streams to.
void generate_maintenance_booter_day(Context& ctx, MarketRuntime& market,
                                     std::size_t booter_index,
                                     util::Timestamp day,
                                     std::optional<util::Timestamp> takedown,
                                     util::Rng& rng);

/// Benign baseline + scanner traffic for days in [from, to).
void generate_benign_traffic(Context& ctx, const ReflectorPools& pools,
                             util::Timestamp from, util::Timestamp to,
                             util::Rng rng);

}  // namespace booterscope::sim::detail
