#include "sim/landscape_stream.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/landscape_detail.hpp"
#include "util/annotations.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::sim {

namespace detail {
namespace {

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

/// The in-flight window: one slot per resident day shard, day d in slot
/// d % size(). A worker fills its slot and then publishes it; the driver
/// takes the slots back in day order, waiting only for the next one.
class ShardRing {
 public:
  explicit ShardRing(std::size_t slots) : outputs_(slots), done_(slots, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return outputs_.size(); }

  /// The slot day `d` writes into. Touched only by that day's shard until
  /// it publishes, and only by the driver after take(d) returned.
  [[nodiscard]] DayShardOutput& slot(std::size_t d) noexcept {
    return outputs_[d % size()];
  }

  /// Worker side: day `d`'s slot is complete.
  void publish(std::size_t d) {
    const util::MutexLock lock(mutex_);
    done_[d % size()] = 1;
    ready_.notify_one();  // the driver is the only waiter
  }

  /// Driver side: blocks until day `d` is published, then hands its slot
  /// back for draining and re-arms it.
  [[nodiscard]] DayShardOutput& take(std::size_t d) {
    const std::size_t i = d % size();
    const util::MutexLock lock(mutex_);
    while (done_[i] == 0) ready_.wait(mutex_);
    done_[i] = 0;
    return outputs_[i];
  }

 private:
  std::vector<DayShardOutput> outputs_;
  util::Mutex mutex_;
  util::CondVar ready_;
  std::vector<char> done_ BS_GUARDED_BY(mutex_);
};

/// Runs day shard `d` on `market`, the run's market as of day `d` (the
/// shard's own copy, freed when the shard returns): generates attack,
/// maintenance, and benign traffic into a fresh context. Pure in
/// (internet, config, pools, honeypots, d), since the market state is a
/// function of d — every flow's `first` timestamp
/// is >= config.start + d days (attacks launch within their day; the 1 h
/// duration cap only spills *forward*), which is the invariant streaming
/// sinks rely on to finalize earlier bins at day_complete barriers.
/// Thread-safe: called concurrently for distinct `d`. Its stages open on
/// the executing worker and nest under the driver's `day_shards`.
void run_day_shard(const Internet& internet, const LandscapeConfig& config,
                   const ReflectorPools& pools,
                   const HoneypotDeployment& honeypots, std::size_t d,
                   MarketRuntime market, DayShardOutput& out,
                   obs::StageTracer* tracer) {
  obs::StageTimer shard_timer(tracer, "day_shard");
  shard_timer.add_items_in(1);
  const util::Timestamp day =
      config.start + util::Duration::days(static_cast<std::int64_t>(d));
  const util::Timestamp next = day + util::Duration::days(1);
  const util::Timestamp horizon =
      config.start + util::Duration::days(config.days);

  Context ctx(internet, config, util::Rng::split(config.seed, "context", d));
  const auto flows = [&ctx] {
    return ctx.ixp_flows.size() + ctx.tier1_flows.size() +
           ctx.tier2_flows.size();
  };
  std::optional<obs::StageTimer> phase;
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

  // Run-wide state, built once: the reflector pools, the booter market
  // (stepped forward a day per shard by the cursor) and the honeypots.
  const detail::ReflectorPools pools = detail::build_pools(config);
  util::Rng rng(config.seed);
  util::Rng market_rng = rng.fork("market");
  detail::MarketCursor cursor(
      detail::build_market(internet, config, pools, market_rng), config.start);
  ++summary.work.market_builds;
  summary.market = cursor.market().profiles;
  HoneypotDeployment honeypots;
  if (config.honeypots_per_vector > 0) {
    honeypots = HoneypotDeployment(pools, config.honeypots_per_vector,
                                   config.honeypot_public_share,
                                   rng.fork("honeypots"));
  }

  const auto days = static_cast<std::size_t>(config.days);
  const auto day_start = [&config](std::size_t d) {
    return config.start + util::Duration::days(static_cast<std::int64_t>(d));
  };
  const std::size_t window =
      options.max_inflight_days != 0
          ? options.max_inflight_days
          : std::max<std::size_t>(std::size_t{1}, pool.size() * 2);
  detail::ShardRing ring(std::min(window, std::max<std::size_t>(days, 1)));
  // Shards reference this frame, and tasks finish their pool bookkeeping
  // (the traced task records) after their body returned. Every exit, an
  // unwinding one included, lets them retire first; the caller may then
  // read the tracer, or destroy it, as soon as this returns.
  struct RetireShards {
    exec::ThreadPool& pool;
    ~RetireShards() { pool.wait_idle(); }
  } retire{pool};

  // Steps the market to day d and hands the shard its own copy. Submitted
  // inside `day_shards`, so the worker's `day_shard` nests under it.
  const auto submit = [&](std::size_t d) {
    obs::StageTimer timer(tracer, "day_shards");
    timer.add_items_in(1);
    std::optional<obs::StageTimer> step(std::in_place, tracer, "market");
    const std::uint64_t churned = cursor.advance_to(day_start(d));
    summary.work.churn_days += churned;
    step->add_items_in(churned);
    detail::MarketRuntime market = cursor.market();
    step.reset();
    pool.submit([&, d, market = std::move(market)]() mutable {
      detail::run_day_shard(internet, config, pools, honeypots, d,
                            std::move(market), ring.slot(d), tracer);
      ring.publish(d);
    });
  };

  // Rolling drain: the driver drains day d while the workers produce the
  // rest of the window, and refills the window as soon as d is out.
  for (std::size_t d = 0; d < ring.size() && d < days; ++d) submit(d);
  flow::FlowBatch batch(options.batch_flows);
  for (std::size_t d = 0; d < days; ++d) {
    // Waiting for the shard is driver idle time, not drain work.
    detail::DayShardOutput& shard = ring.take(d);
    {
      obs::StageTimer timer(tracer, "drain");
      const std::size_t drained = shard.flow_count();
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
        sink.day_complete(static_cast<int>(d), day_start(d));
      }
      // Free the shard before its slot takes the next day: the memory
      // bound is the window, not the whole run.
      shard = detail::DayShardOutput{};
      timer.add_items_in(drained);
      timer.add_items_out(drained);
    }
    if (d + ring.size() < days) submit(d + ring.size());
  }

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
                              obs::StageTracer* tracer,
                              flow::FlowBatchSink* analysis) {
  LandscapeResult result;
  flow::CollectingSink flows;
  std::vector<flow::FlowBatchSink*> sinks{&flows};
  if (analysis != nullptr) sinks.push_back(analysis);
  flow::FanOutSink drain(std::move(sinks));
  GroundTruthCollector truth(result);
  StreamSummary summary = run_landscape_stream(internet, config, pool, drain,
                                               {}, tracer, &truth);
  result.config = config;
  result.market = std::move(summary.market);
  result.work = summary.work;
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
