#include "sim/landscape_stream.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/landscape_detail.hpp"
#include "util/time.hpp"

namespace booterscope::sim {

namespace detail {
namespace {

/// Read-only state shared by every shard of a run: reflector pools, the
/// booter market profiles (for the result), and the honeypot deployment.
struct SharedShardState {
  ReflectorPools pools;
  std::vector<BooterProfile> market_profiles;
  HoneypotDeployment honeypots;
};

SharedShardState build_shared_state(const Internet& internet,
                                    const LandscapeConfig& config) {
  SharedShardState state;
  state.pools = build_pools(config);
  {
    util::Rng rng(config.seed);
    util::Rng market_rng = rng.fork("market");
    const MarketRuntime market =
        build_market(internet, config, state.pools, market_rng);
    state.market_profiles = market.profiles;
  }
  {
    util::Rng rng(config.seed);
    (void)rng.fork("market");
    if (config.honeypots_per_vector > 0) {
      state.honeypots =
          HoneypotDeployment(state.pools, config.honeypots_per_vector,
                             config.honeypot_public_share,
                             rng.fork("honeypots"));
    }
  }
  return state;
}

/// Everything one day shard produces, written into an index-addressed slot
/// so the drain never depends on completion order.
struct DayShardOutput {
  flow::FlowList ixp;
  flow::FlowList tier1;
  flow::FlowList tier2;
  std::vector<AttackRecord> attacks;
  std::vector<HoneypotObservation> honeypot_log;

  [[nodiscard]] std::size_t flow_count() const noexcept {
    return ixp.size() + tier1.size() + tier2.size();
  }
};

/// Runs day shard `d`: replicates the market at day `d`, then generates
/// attack, maintenance, and benign traffic into a fresh context. Pure in
/// (internet, config, pools, honeypots, d) — every flow's `first` timestamp
/// is >= config.start + d days (attacks launch within their day; the 1 h
/// duration cap only spills *forward*), which is the invariant streaming
/// sinks rely on to finalize earlier bins at day_complete barriers.
/// Thread-safe: called concurrently for distinct `d`. Its stages open on
/// the executing worker and nest under the driver's `day_shards`.
void run_day_shard(const Internet& internet, const LandscapeConfig& config,
                   const ReflectorPools& pools,
                   const HoneypotDeployment& honeypots, std::size_t d,
                   DayShardOutput& out, obs::StageTracer* tracer) {
  obs::StageTimer shard_timer(tracer, "day_shard");
  shard_timer.add_items_in(1);
  const util::Timestamp day =
      config.start + util::Duration::days(static_cast<std::int64_t>(d));
  const util::Timestamp next = day + util::Duration::days(1);
  const util::Timestamp horizon =
      config.start + util::Duration::days(config.days);

  // Market replica: every shard forks the same market sequence, so it sees
  // the same profiles and per-service list seeds. Advancing start -> day
  // applies exactly d churn days (plus booter B's one-off list switch),
  // making list state a pure function of the day index.
  std::optional<obs::StageTimer> phase;
  phase.emplace(tracer, "market");
  phase->add_items_in(d);  // churn days replayed
  util::Rng seed_rng(config.seed);
  util::Rng market_rng = seed_rng.fork("market");
  MarketRuntime market = build_market(internet, config, pools, market_rng);
  for (BooterService& service : market.services) {
    service.advance_to(config.start);
    service.advance_to(day);
  }

  Context ctx(internet, config, util::Rng::split(config.seed, "context", d));
  const auto flows = [&ctx] {
    return ctx.ixp_flows.size() + ctx.tier1_flows.size() +
           ctx.tier2_flows.size();
  };
  phase.emplace(tracer, "attacks");
  generate_attack_traffic(ctx, market, pools, honeypots, day, next, horizon,
                          util::Rng::split(config.seed, "attacks", d),
                          out.attacks, out.honeypot_log);
  phase->add_items_out(flows());
  std::size_t before = flows();
  phase.emplace(tracer, "maintenance");
  for (std::size_t b = 0; b < market.services.size(); ++b) {
    // Per-(day, booter) stream: the cell index packs both so adding a
    // booter never shifts another cell's stream.
    util::Rng cell =
        util::Rng::split(config.seed, "maintenance",
                         (static_cast<std::uint64_t>(d) << 16) | b);
    generate_maintenance_booter_day(ctx, market, b, day, config.takedown,
                                    cell);
  }
  phase->add_items_out(flows() - before);
  before = flows();
  phase.emplace(tracer, "benign");
  generate_benign_traffic(ctx, pools, day, next,
                          util::Rng::split(config.seed, "benign", d));
  phase->add_items_out(flows() - before);
  phase.reset();

  out.ixp = std::move(ctx.ixp_flows);
  out.tier1 = std::move(ctx.tier1_flows);
  out.tier2 = std::move(ctx.tier2_flows);
  shard_timer.add_items_out(out.flow_count());
}

}  // namespace
}  // namespace detail

namespace {

/// Pushes one vantage's day flows through the reused batch, flushing full
/// batches and the trailing partial into the sink (each delivery an
/// `analysis` stage). Returns rows delivered.
std::uint64_t drain_list(flow::FlowBatch& batch, flow::FlowBatchSink& sink,
                         std::size_t vantage, const flow::FlowList& flows,
                         std::uint64_t& batches, obs::StageTracer* tracer) {
  const auto deliver = [&] {
    const obs::StageTimer timer(tracer, "analysis");
    sink.consume(vantage, batch.view());
    batch.clear();
    ++batches;
  };
  for (const flow::FlowRecord& f : flows) {
    batch.push_back(f);
    if (batch.full()) deliver();
  }
  if (!batch.empty()) deliver();
  return flows.size();
}

/// Keeps the ground truth a materialized run returns.
class GroundTruthCollector final : public GroundTruthSink {
 public:
  explicit GroundTruthCollector(LandscapeResult& result) : result_(&result) {}

  void on_attacks(std::span<const AttackRecord> attacks) override {
    result_->attacks.insert(result_->attacks.end(), attacks.begin(),
                            attacks.end());
  }
  void on_honeypot_log(std::span<const HoneypotObservation> log) override {
    result_->honeypot_log.insert(result_->honeypot_log.end(), log.begin(),
                                 log.end());
  }

 private:
  LandscapeResult* result_;
};

}  // namespace

StreamSummary run_landscape_stream(const Internet& internet,
                                   const LandscapeConfig& config,
                                   exec::ThreadPool& pool,
                                   flow::FlowBatchSink& sink,
                                   const StreamOptions& options,
                                   obs::StageTracer* tracer,
                                   GroundTruthSink* truth) {
  obs::StageTimer landscape_timer(tracer, "landscape_stream");
  StreamSummary summary;
  summary.config = config;

  const detail::SharedShardState shared =
      detail::build_shared_state(internet, config);
  summary.market = shared.market_profiles;

  const auto days = static_cast<std::size_t>(config.days);
  const std::size_t wave =
      options.max_inflight_days != 0
          ? options.max_inflight_days
          : std::max<std::size_t>(std::size_t{1}, pool.size() * 2);
  flow::FlowBatch batch(options.batch_flows);
  std::vector<detail::DayShardOutput> shards;

  for (std::size_t wave_start = 0; wave_start < days; wave_start += wave) {
    const std::size_t count = std::min(wave, days - wave_start);
    shards.assign(count, detail::DayShardOutput{});
    {
      obs::StageTimer timer(tracer, "day_shards");
      timer.add_items_in(count);
      pool.parallel_for(count, [&](std::size_t i) {
        detail::run_day_shard(internet, config, shared.pools, shared.honeypots,
                              wave_start + i, shards[i], tracer);
      });
      for (const detail::DayShardOutput& shard : shards) {
        timer.add_items_out(shard.flow_count());
      }
    }
    {
      obs::StageTimer timer(tracer, "drain");
      std::size_t drained = 0;
      for (std::size_t i = 0; i < count; ++i) {
        detail::DayShardOutput& shard = shards[i];
        const std::size_t d = wave_start + i;
        drained += shard.flow_count();
        summary.vantage_flows[flow::kVantageIxp] +=
            drain_list(batch, sink, flow::kVantageIxp, shard.ixp,
                       summary.batches, tracer);
        summary.vantage_flows[flow::kVantageTier1] +=
            drain_list(batch, sink, flow::kVantageTier1, shard.tier1,
                       summary.batches, tracer);
        summary.vantage_flows[flow::kVantageTier2] +=
            drain_list(batch, sink, flow::kVantageTier2, shard.tier2,
                       summary.batches, tracer);
        summary.attack_count += shard.attacks.size();
        summary.honeypot_observations += shard.honeypot_log.size();
        if (truth != nullptr) {
          truth->on_attacks(shard.attacks);
          truth->on_honeypot_log(shard.honeypot_log);
        }
        {
          const obs::StageTimer analysis(tracer, "analysis");
          sink.day_complete(static_cast<int>(d),
                            config.start + util::Duration::days(
                                               static_cast<std::int64_t>(d)));
        }
        // Free the shard before draining the next one: the memory bound is
        // the wave itself, not the whole run.
        shard = detail::DayShardOutput{};
      }
      timer.add_items_in(drained);
      timer.add_items_out(drained);
    }
  }

  // Tasks finish their pool bookkeeping (the traced task records) after
  // their last body returned; let them retire so the caller may read the
  // tracer, or destroy it, as soon as this returns.
  pool.wait_idle();
  obs::metrics()
      .counter("booterscope_landscape_attacks_total")
      .add(summary.attack_count);
  obs::metrics()
      .counter("booterscope_stream_batches_total")
      .add(summary.batches);
  return summary;
}

LandscapeResult run_landscape(const Internet& internet,
                              const LandscapeConfig& config,
                              exec::ThreadPool& pool,
                              obs::StageTracer* tracer) {
  LandscapeResult result;
  flow::CollectingSink flows;
  GroundTruthCollector truth(result);
  StreamSummary summary = run_landscape_stream(internet, config, pool, flows,
                                               {}, tracer, &truth);
  result.config = config;
  result.market = std::move(summary.market);
  result.ixp.store = flow::FlowStore{std::move(flows.flows(flow::kVantageIxp))};
  result.ixp.sampling_rate = config.ixp_sampling;
  result.tier1.store =
      flow::FlowStore{std::move(flows.flows(flow::kVantageTier1))};
  result.tier1.sampling_rate = config.tier1_sampling;
  result.tier2.store =
      flow::FlowStore{std::move(flows.flows(flow::kVantageTier2))};
  result.tier2.sampling_rate = config.tier2_sampling;
  return result;
}

}  // namespace booterscope::sim
