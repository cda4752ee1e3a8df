#include "sim/landscape.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/landscape_detail.hpp"
#include "topo/ixp.hpp"
#include "util/hash.hpp"

namespace booterscope::sim {

namespace detail {

using net::AmpVector;
using topo::AsId;

const PathView& PathClassifier::view(AsId src, AsId dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | dst;
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(key, classify(src, dst)).first->second;
}

PathView PathClassifier::classify(AsId src, AsId dst) const {
  PathView result;
  const topo::Router& router = internet_->router();
  if (!router.reachable(src, dst)) return result;
  result.reachable = true;
  const auto path = router.path(src, dst);
  const topo::Topology& topology = internet_->topology();
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const topo::Route& hop = router.route(path[i], dst);
    if (topology.link(hop.via_link).on_ixp_fabric() && !result.ixp.visible) {
      result.ixp.visible = true;
      result.ixp.peer = topology.node(path[i]).asn;
    }
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == internet_->tier1_vantage() && i > 0) {
      result.tier1.visible = true;  // ingress-only data set
      result.tier1.peer = topology.node(path[i - 1]).asn;
    }
    if (path[i] == internet_->tier2_vantage()) {
      result.tier2.visible = true;  // ingress + egress data set
      const std::size_t adjacent = i > 0 ? i - 1 : (path.size() > 1 ? 1 : 0);
      result.tier2.peer = topology.node(path[adjacent]).asn;
    }
  }
  return result;
}

VantageMetrics::VantageMetrics(const char* vantage) {
  obs::MetricsRegistry& registry = obs::metrics();
  const obs::Labels labels{{"vantage", vantage}};
  emits = &registry.counter("booterscope_landscape_emits_total", labels);
  flows = &registry.counter("booterscope_landscape_flows_total", labels);
  offered_packets =
      &registry.counter("booterscope_landscape_offered_packets_total", labels);
  sampled_packets =
      &registry.counter("booterscope_landscape_sampled_packets_total", labels);
  zero_sample_drops = &registry.counter(
      "booterscope_landscape_zero_sample_drops_total", labels);
  window_drops =
      &registry.counter("booterscope_landscape_window_drops_total", labels);
}

void Context::emit(AsId src_as, net::Ipv4Addr src, AsId dst_as,
                   net::Ipv4Addr dst, std::uint16_t src_port,
                   std::uint16_t dst_port, std::uint64_t true_packets,
                   std::uint32_t packet_bytes, util::Timestamp first,
                   util::Timestamp last) {
  const PathView& pv = classifier.view(src_as, dst_as);
  if (!pv.reachable) {
    unreachable_drops->inc();
    return;
  }
  const topo::Topology& topology = internet->topology();
  auto make_record = [&](const Visibility& vis, std::uint32_t sampling) {
    flow::FlowRecord f;
    f.src = src;
    f.dst = dst;
    f.src_port = src_port;
    f.dst_port = dst_port;
    f.proto = net::IpProto::kUdp;
    f.bytes = 0;  // set by caller path below
    f.first = first;
    f.last = last;
    f.src_asn = topology.node(src_as).asn;
    f.dst_asn = topology.node(dst_as).asn;
    f.peer_asn = vis.peer;
    f.direction = flow::Direction::kIngress;
    f.sampling_rate = sampling;
    return f;
  };
  auto push = [&](flow::FlowList& out, const Visibility& vis,
                  std::uint32_t sampling,
                  const std::optional<LandscapeConfig::Window>& window,
                  VantageMetrics& metrics) {
    if (!vis.visible) return;
    metrics.emits->inc();
    if (window && !window->contains(first)) {
      metrics.window_drops->inc();
      return;
    }
    metrics.offered_packets->add(true_packets);
    const double expected =
        static_cast<double>(true_packets) / static_cast<double>(sampling);
    const std::uint64_t sampled = util::poisson(rng, expected);
    if (sampled == 0) {
      metrics.zero_sample_drops->inc();
      return;
    }
    flow::FlowRecord f = make_record(vis, sampling);
    f.packets = sampled;
    f.bytes = sampled * packet_bytes;
    out.push_back(f);
    metrics.flows->inc();
    metrics.sampled_packets->add(sampled);
  };
  push(ixp_flows, pv.ixp, config->ixp_sampling, config->ixp_window,
       ixp_metrics);
  push(tier1_flows, pv.tier1, config->tier1_sampling, config->tier1_window,
       tier1_metrics);
  push(tier2_flows, pv.tier2, config->tier2_sampling, config->tier2_window,
       tier2_metrics);
}

double seasonality(util::Timestamp t) noexcept {
  const int weekday = t.weekday();           // 0 = Monday
  const int hour = t.hour_of_day();
  const double weekly = weekday >= 5 ? 1.15 : 0.94;  // weekends slightly up
  // Booter usage follows end-user evenings.
  const double diurnal =
      1.0 + 0.45 * std::sin((static_cast<double>(hour) - 9.0) / 24.0 * 2.0 * M_PI);
  return weekly * diurnal;
}

AmpVector draw_vector(const LandscapeConfig& config, util::Rng& rng) {
  const double u = rng.uniform();
  if (u < config.share_ntp) return AmpVector::kNtp;
  if (u < config.share_ntp + config.share_dns) return AmpVector::kDns;
  if (u < config.share_ntp + config.share_dns + config.share_cldap) {
    return AmpVector::kCldap;
  }
  return AmpVector::kMemcached;
}

namespace {

/// Is this reflector remediated (no longer amplifying) at time t?
/// Deterministic per (vector, id): each reflector has a fixed remediation
/// date drawn uniformly from the rollout schedule.
[[nodiscard]] bool reflector_remediated(const LandscapeConfig& cfg,
                                        AmpVector vector, ReflectorId id,
                                        util::Timestamp t) noexcept {
  if (!cfg.remediation_start || t < *cfg.remediation_start) return false;
  const double days_in =
      static_cast<double>((t - *cfg.remediation_start).total_days()) + 1.0;
  const double remediated_share =
      std::min(1.0, cfg.remediation_per_day * days_in);
  constexpr util::SipKey kRemediationKey{0x72656d6564696174ULL,
                                         0x696f6e2d64617465ULL};
  const std::uint64_t digest = util::siphash24(
      kRemediationKey,
      (static_cast<std::uint64_t>(vector) << 32) ^ id);
  const double position = static_cast<double>(digest >> 11) * 0x1.0p-53;
  return position < remediated_share;
}

}  // namespace

std::uint16_t ephemeral_port(std::uint64_t salt) noexcept {
  constexpr util::SipKey kPortKey{0x706f727473616c74ULL, 0x65706865'6d6572ULL};
  return static_cast<std::uint16_t>(
      1024 + util::siphash24(kPortKey, salt) % 60000);
}

ReflectorPools build_pools(const LandscapeConfig& config) {
  return ReflectorPools{
      {AmpVector::kNtp, ReflectorPool(AmpVector::kNtp, config.ntp_population)},
      {AmpVector::kDns, ReflectorPool(AmpVector::kDns, config.dns_population)},
      {AmpVector::kCldap,
       ReflectorPool(AmpVector::kCldap, config.cldap_population)},
      {AmpVector::kMemcached,
       ReflectorPool(AmpVector::kMemcached, config.memcached_population)},
  };
}

MarketRuntime build_market(const Internet& internet,
                           const LandscapeConfig& config,
                           const ReflectorPools& pools,
                           util::Rng& market_rng) {
  std::unordered_map<AmpVector, const ReflectorPool*> pool_ptrs;
  for (const auto& [vector, pool] : pools) pool_ptrs.emplace(vector, &pool);

  MarketRuntime market;
  market.profiles =
      market_booters(config.extra_booters, config.extra_seized, market_rng);
  for (std::size_t i = 0; i < market.profiles.size(); ++i) {
    market.services.emplace_back(market.profiles[i], pool_ptrs,
                                 market_rng.fork(market.profiles[i].name));
    market.backends.push_back(internet.booter_backend(i));
  }
  return market;
}

MarketCursor::MarketCursor(MarketRuntime market, util::Timestamp start)
    : market_(std::move(market)),
      pending_switch_(market_.services.size()) {
  for (std::size_t i = 0; i < market_.services.size(); ++i) {
    BooterService& service = market_.services[i];
    service.advance_to(start);  // a first advance never churns
    const ListPolicy& policy = service.profile().list_policy;
    if (policy.has_jump && start < policy.jump_at) pending_switch_[i] = service;
  }
}

std::uint64_t MarketCursor::advance_to(util::Timestamp day) {
  std::uint64_t churn_days = 0;
  for (std::size_t i = 0; i < market_.services.size(); ++i) {
    const std::optional<BooterService>& post_start = pending_switch_[i];
    if (post_start && day >= post_start->profile().list_policy.jump_at) {
      market_.services[i] = *post_start;
    }
    churn_days += market_.services[i].advance_to(day);
  }
  return churn_days;
}

std::size_t pick_booter(const MarketRuntime& market, AmpVector vector,
                        util::Timestamp t,
                        std::optional<util::Timestamp> takedown,
                        util::Rng& rng) {
  double total = 0.0;
  for (std::size_t i = 0; i < market.services.size(); ++i) {
    const auto& svc = market.services[i];
    if (svc.profile().offers(vector) && svc.active_at(t, takedown)) {
      total += svc.profile().market_weight;
    }
  }
  if (total <= 0.0) return market.profiles.size();
  double draw = rng.uniform() * total;
  for (std::size_t i = 0; i < market.services.size(); ++i) {
    const auto& svc = market.services[i];
    if (!svc.profile().offers(vector) || !svc.active_at(t, takedown)) continue;
    draw -= svc.profile().market_weight;
    if (draw <= 0.0) return i;
  }
  return market.profiles.size();
}

void generate_attack_traffic(Context& ctx, MarketRuntime& market,
                             const ReflectorPools& pools,
                             const HoneypotDeployment& honeypots,
                             util::Timestamp from, util::Timestamp to,
                             util::Timestamp horizon, util::Rng rng,
                             std::vector<AttackRecord>& ground_truth,
                             std::vector<HoneypotObservation>& honeypot_log) {
  const LandscapeConfig& cfg = *ctx.config;
  const Internet& internet = *ctx.internet;
  util::ZipfSampler victim_sampler(cfg.victim_population, cfg.victim_zipf);

  for (util::Timestamp hour = from; hour < to;
       hour += util::Duration::hours(1)) {
    const double rate = cfg.attacks_per_day / 24.0 * seasonality(hour);
    const std::uint64_t launches = util::poisson(rng, rate);
    for (std::uint64_t n = 0; n < launches; ++n) {
      const util::Timestamp start =
          hour + util::Duration::seconds_f(rng.uniform(0.0, 3600.0));
      const AmpVector vector = draw_vector(cfg, rng);
      // With migration, users pick among the currently active services;
      // without it, they stick to their usual booter and give up when it
      // is gone.
      const std::size_t booter_index =
          cfg.demand_migration
              ? pick_booter(market, vector, start, cfg.takedown, rng)
              : pick_booter(market, vector, start, std::nullopt, rng);
      if (booter_index >= market.services.size()) continue;
      BooterService& booter = market.services[booter_index];
      if (!cfg.demand_migration &&
          !booter.active_at(start, cfg.takedown)) {
        continue;  // demand evaporates with the seized front-end
      }
      booter.advance_to(start);

      AttackRecord record;
      record.start = start;
      record.booter_index = booter_index;
      record.vector = vector;
      const auto victim_index =
          static_cast<std::uint32_t>(victim_sampler(rng));
      const Internet::Host victim = internet.victim_host(victim_index);
      record.victim = victim.ip;
      record.victim_as = victim.as;

      const double duration_s = std::min(
          cfg.duration_cap_s,
          util::lognormal(rng, cfg.duration_mu, cfg.duration_sigma));
      record.duration = util::Duration::seconds_f(std::max(60.0, duration_s));

      const auto wanted = static_cast<std::uint32_t>(util::bounded_pareto(
          rng, cfg.reflector_count_min, cfg.reflector_count_cap,
          cfg.reflector_count_alpha));
      std::vector<ReflectorId> reflectors =
          booter.attack_reflectors(vector, wanted);
      if (reflectors.size() < wanted) {
        // Large orders exceed the booter's own list: backends top up from
        // shared public amplifier lists.
        util::Rng topup = rng.fork("topup");
        auto extra = pools.at(vector).sample_public(
            static_cast<std::uint32_t>(wanted - reflectors.size()),
            cfg.reflector_count_cap > 0
                ? static_cast<std::uint32_t>(cfg.reflector_count_cap * 2)
                : 18'000,
            topup);
        reflectors.insert(reflectors.end(), extra.begin(), extra.end());
      }
      record.reflector_count = static_cast<std::uint32_t>(reflectors.size());

      // Per-reflector victim-side rates.
      const net::VectorProfile vp = net::profile(vector);
      struct Source {
        Internet::Host host;
        double pps = 0.0;
      };
      std::vector<Source> sources;
      sources.reserve(reflectors.size());
      double total_bps = 0.0;
      const double mean_packet =
          (vp.reply_bytes_lo + vp.reply_bytes_hi) / 2.0;
      for (const ReflectorId id : reflectors) {
        if (reflector_remediated(cfg, vector, id, start)) continue;
        Source source;
        source.host = internet.reflector_host(vector, id);
        const double mbps = util::lognormal(rng, cfg.per_reflector_mbps_mu,
                                            cfg.per_reflector_mbps_sigma);
        source.pps = mbps * 1e6 / 8.0 / mean_packet;
        total_bps += mbps * 1e6;
        sources.push_back(source);
      }
      record.victim_gbps = total_bps / 1e9;
      ground_truth.push_back(record);

      // Honeypots among the tasked amplifiers observe this attack's
      // spoofed trigger stream (per-amplifier share of the trigger rate).
      if (honeypots.total() > 0) {
        const double trigger_pps_per_reflector =
            total_bps / 8.0 / mean_packet / vp.replies_per_request /
            static_cast<double>(sources.size());
        for (const ReflectorId id : reflectors) {
          if (!honeypots.is_honeypot(vector, id)) continue;
          HoneypotObservation observation;
          observation.vector = vector;
          observation.honeypot = id;
          observation.victim = victim.ip;
          observation.start = start;
          observation.duration = record.duration;
          observation.trigger_pps = trigger_pps_per_reflector;
          observation.truth_booter = booter_index;
          honeypot_log.push_back(observation);
        }
      }

      // Victim-bound amplified flows, one record per (reflector, minute,
      // vantage) after sampling. Poisson splitting keeps this exact.
      const std::uint16_t victim_port = ephemeral_port(victim.ip.value());
      const auto minutes = static_cast<std::int64_t>(
          (record.duration.total_seconds() + 59) / 60);
      for (std::int64_t minute = 0; minute < minutes; ++minute) {
        const util::Timestamp bin_start =
            start + util::Duration::minutes(minute);
        if (bin_start >= horizon) break;  // attack runs past the study window
        const double ramp = std::min(1.0, (static_cast<double>(minute) + 1.0));
        const double noise = rng.uniform(0.9, 1.1);
        const double seconds_in_bin = std::min<double>(
            60.0, static_cast<double>(record.duration.total_seconds() -
                                      minute * 60));
        for (const Source& source : sources) {
          const double true_packets =
              source.pps * seconds_in_bin * ramp * noise;
          if (true_packets <= 0.0) continue;
          const auto size = static_cast<std::uint32_t>(
              rng.range(vp.reply_bytes_lo, vp.reply_bytes_hi));
          ctx.emit(source.host.as, source.host.ip, victim.as, victim.ip,
                   vp.service_port, victim_port,
                   static_cast<std::uint64_t>(true_packets), size, bin_start,
                   bin_start + util::Duration::seconds_f(seconds_in_bin - 1.0));
        }

        // Trigger traffic: spoofed victim->reflector requests from the
        // booter backend; on the wire the source IP is the victim's.
        const Internet::Host& backend = market.backends[booter_index];
        const double trigger_pps =
            total_bps / 8.0 / mean_packet / vp.replies_per_request;
        const std::size_t trigger_targets =
            std::min<std::size_t>(sources.size(), 24);
        for (std::size_t i = 0; i < trigger_targets; ++i) {
          const Source& source = sources[rng.bounded(sources.size())];
          ctx.emit(backend.as, victim.ip /* spoofed */, source.host.as,
                   source.host.ip, victim_port, vp.service_port,
                   static_cast<std::uint64_t>(
                       trigger_pps * seconds_in_bin /
                       static_cast<double>(trigger_targets)),
                   vp.request_bytes, bin_start,
                   bin_start + util::Duration::seconds_f(seconds_in_bin - 1.0));
        }
      }
    }
  }
}

void generate_maintenance_booter_day(Context& ctx, MarketRuntime& market,
                                     std::size_t booter_index,
                                     util::Timestamp day,
                                     std::optional<util::Timestamp> takedown,
                                     util::Rng& rng) {
  const LandscapeConfig& cfg = *ctx.config;
  const Internet& internet = *ctx.internet;
  BooterService& booter = market.services[booter_index];
  // Maintenance runs only while the service operates.
  if (!booter.active_at(day + util::Duration::hours(12), takedown)) return;
  booter.advance_to(day);
  const Internet::Host& backend = market.backends[booter_index];
  // Backends reschedule scans irregularly: day-to-day volume noise.
  const double day_noise = util::lognormal(rng, 0.0, 0.15);
  for (const AmpVector vector : booter.profile().vectors) {
    const ReflectorList* list = booter.list(vector);
    if (list == nullptr || list->current().empty()) continue;
    const net::VectorProfile vp = net::profile(vector);
    // Backend-dependent intensity (profiles vary around 2000 pkts/
    // reflector/day) on top of the calibrated per-vector base.
    const double backend_factor =
        booter.profile().maintenance_pkts_per_reflector_day / 2000.0;
    const double daily_packets = cfg.maintenance_base(vector) *
                                 booter.profile().market_weight *
                                 backend_factor * day_noise *
                                 cfg.maintenance_scale;
    // Spread the day's polling over per-reflector flows; emitting a
    // bounded number of (backend -> reflector) flows keeps record
    // counts sane while preserving packet totals.
    const std::size_t flows =
        std::min<std::size_t>(list->current().size(), 48);
    const double packets_per_flow =
        daily_packets / static_cast<double>(flows);
    for (std::size_t i = 0; i < flows; ++i) {
      const ReflectorId id =
          list->current()[rng.bounded(list->current().size())];
      const Internet::Host host = internet.reflector_host(vector, id);
      const util::Timestamp first =
          day + util::Duration::seconds_f(rng.uniform(0.0, 43'200.0));
      ctx.emit(backend.as, backend.ip, host.as, host.ip,
               ephemeral_port(backend.ip.value() ^ id), vp.service_port,
               static_cast<std::uint64_t>(packets_per_flow),
               vp.request_bytes, first,
               first + util::Duration::hours(6));
    }
  }
}

void generate_benign_traffic(Context& ctx, const ReflectorPools& pools,
                             util::Timestamp from, util::Timestamp to,
                             util::Rng rng) {
  const LandscapeConfig& cfg = *ctx.config;
  const Internet& internet = *ctx.internet;

  struct Component {
    AmpVector vector;
    double pps;
  };
  const Component components[] = {
      {AmpVector::kNtp, cfg.benign_ntp_pps},
      {AmpVector::kDns, cfg.benign_dns_pps},
      {AmpVector::kCldap, cfg.benign_cldap_pps},
      {AmpVector::kMemcached, cfg.benign_memcached_pps},
  };

  for (util::Timestamp day = from; day < to; day += util::Duration::days(1)) {
    const double season = 0.9 + 0.2 * seasonality(day + util::Duration::hours(14));
    for (const Component& component : components) {
      // Real inter-domain baselines wobble day to day; without this, even
      // sub-percent dips would be statistically significant.
      const double day_noise = util::lognormal(
          rng, 0.0,
          component.vector == AmpVector::kDns ? cfg.benign_dns_noise_sigma
                                              : cfg.benign_noise_sigma);
      const net::VectorProfile vp = net::profile(component.vector);
      const std::uint32_t population = pools.at(component.vector).population();
      // Daily requests, emitted as a bounded number of aggregate
      // client->server flows (and matching small responses).
      const double daily_packets = component.pps * season * day_noise * 86'400.0;
      const std::size_t flows = 512;
      const double packets_per_flow =
          daily_packets / static_cast<double>(flows);
      for (std::size_t i = 0; i < flows; ++i) {
        // Half of benign DNS query load is resolver-to-authoritative
        // between big operators (content networks peering at the IXP).
        const Internet::Host client =
            component.vector == AmpVector::kDns && rng.chance(0.5)
                ? internet.content_host(rng())
                : internet.client_host(rng());
        const auto server_id = static_cast<ReflectorId>(rng.bounded(population));
        // Benign DNS is dominated by large resolver/CDN operators that
        // peer at the IXP (content ASes); benign NTP/other services live
        // in the same stub networks as the abusable reflectors. This
        // placement is why the paper sees a takedown dip in DNS at the
        // tier-2 ISP but not at the IXP, where benign DNS drowns it out.
        const Internet::Host server =
            component.vector == AmpVector::kDns && rng.chance(0.95)
                ? internet.content_host(server_id)
                : internet.reflector_host(component.vector, server_id);
        const util::Timestamp first =
            day + util::Duration::seconds_f(rng.uniform(0.0, 80'000.0));
        const auto request_size = static_cast<std::uint32_t>(
            component.vector == AmpVector::kNtp ? rng.range(76, 90)
                                                : rng.range(60, 120));
        // Requests: dst port = service port (counted by Fig. 4 filters).
        ctx.emit(client.as, client.ip, server.as, server.ip,
                 ephemeral_port(client.ip.value() ^ server_id),
                 vp.service_port,
                 static_cast<std::uint64_t>(packets_per_flow), request_size,
                 first, first + util::Duration::hours(2));
        // Responses: src port = service port, small (benign mode of the
        // packet size distribution in Fig. 2(a)).
        const auto response_size = static_cast<std::uint32_t>(
            component.vector == AmpVector::kNtp ? rng.range(76, 90)
                                                : rng.range(80, 512));
        ctx.emit(server.as, server.ip, client.as, client.ip, vp.service_port,
                 ephemeral_port(client.ip.value() ^ server_id ^ 1),
                 static_cast<std::uint64_t>(packets_per_flow), response_size,
                 first, first + util::Duration::hours(2));
      }

      // Research / list-refresh scanners probing the service port.
      const double scan_daily = cfg.scanner_pps * 86'400.0 / 4.0;  // per vector
      const std::size_t scan_flows = 128;
      for (std::size_t i = 0; i < scan_flows; ++i) {
        const Internet::Host scanner = internet.client_host(0xF000 + (i % 7));
        const auto target_id = static_cast<ReflectorId>(rng.bounded(population));
        const Internet::Host target =
            internet.reflector_host(component.vector, target_id);
        const util::Timestamp first =
            day + util::Duration::seconds_f(rng.uniform(0.0, 80'000.0));
        ctx.emit(scanner.as, scanner.ip, target.as, target.ip,
                 ephemeral_port(scanner.ip.value() ^ target_id),
                 vp.service_port,
                 static_cast<std::uint64_t>(
                     scan_daily / static_cast<double>(scan_flows)),
                 vp.request_bytes, first, first + util::Duration::hours(8));
      }
    }
  }
}

}  // namespace detail

LandscapeConfig paper_landscape_config() {
  LandscapeConfig config;
  config.start = util::Timestamp::parse("2018-09-30").value();
  config.days = 122;
  config.takedown = util::Timestamp::parse("2018-12-19").value();
  config.ixp_window = LandscapeConfig::Window{
      util::Timestamp::parse("2018-10-27").value(),
      util::Timestamp::parse("2019-01-31").value()};
  config.tier1_window = LandscapeConfig::Window{
      util::Timestamp::parse("2018-12-12").value(),
      util::Timestamp::parse("2018-12-31").value()};
  config.tier2_window = LandscapeConfig::Window{
      util::Timestamp::parse("2018-09-27").value(),
      util::Timestamp::parse("2019-02-03").value()};
  return config;
}

}  // namespace booterscope::sim
