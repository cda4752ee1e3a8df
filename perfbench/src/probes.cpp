#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace bs = booterscope;

std::uint64_t landscape_seed(std::uint64_t seed, std::size_t index) {
  if (index == 0) return seed;
  // splitmix64 finalizer over the seed advanced by `index` golden steps.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<float>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t k = std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return static_cast<double>(samples[k]);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void TimedSink::consume(std::size_t vantage,
                        const bs::flow::FlowBatchView& batch) {
  const std::int64_t t0 = now_ns();
  inner_.consume(vantage, batch);
  const std::int64_t t1 = now_ns();
  consume_ns += t1 - t0;
  ++consume_calls;
  rows += batch.size();
  if (op_us_ != nullptr) {
    op_us_->push_back(static_cast<float>(static_cast<double>(t1 - t0) / 1e3));
  }
  if (log_ != nullptr) log_->add("core.consume", parent_, t0, t1, day_);
}

void TimedSink::day_complete(int day, bs::util::Timestamp day_start) {
  const std::int64_t t0 = now_ns();
  inner_.day_complete(day, day_start);
  const std::int64_t t1 = now_ns();
  barrier_ns += t1 - t0;
  ++barriers;
  if (log_ != nullptr) log_->add("core.barrier", parent_, t0, t1, day);
  day_ = day + 1;
}

PoolSnapshot PoolSnapshot::take(const bs::exec::ThreadPool& pool) {
  PoolSnapshot snap;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    snap.busy_ns += pool.worker_busy_nanos(w);
  }
  snap.tasks = pool.tasks_executed();
  snap.steals = pool.steals();
  return snap;
}

namespace {

constexpr const char* kEmits = "booterscope_landscape_emits_total";
constexpr const char* kFlows = "booterscope_landscape_flows_total";

/// Wall seconds of every stage-tree node with this name.
double stage_seconds(const bs::obs::StageNode& node, const std::string& name) {
  double total = node.name == name ? node.wall_seconds() : 0.0;
  for (const auto& child : node.children) total += stage_seconds(*child, name);
  return total;
}

}  // namespace

LandscapeProbe LandscapeProbe::start(const bs::exec::ThreadPool& pool) {
  LandscapeProbe probe;
  probe.pool_before = PoolSnapshot::take(pool);
  probe.emits_before = bs::obs::metrics().counter_total(kEmits);
  probe.flows_before = bs::obs::metrics().counter_total(kFlows);
  return probe;
}

void LandscapeProbe::finish(const bs::exec::ThreadPool& pool, double wall_s,
                            const TimedSink& sink, std::uint64_t attacks,
                            std::uint64_t batches,
                            const bs::obs::StageTracer* tracer,
                            std::map<std::string, double>& layer) const {
  const PoolSnapshot after = PoolSnapshot::take(pool);
  const double sink_s =
      static_cast<double>(sink.consume_ns + sink.barrier_ns) / 1e9;
  layer["sim.produce_s"] = wall_s - sink_s;
  if (tracer != nullptr) {
    layer["sim.day_shards_s"] = stage_seconds(tracer->root(), "day_shards");
    layer["sim.shard_busy_s"] = stage_seconds(tracer->root(), "day_shard");
    layer["sim.drain_s"] = stage_seconds(tracer->root(), "drain");
  }
  layer["sim.attacks"] = static_cast<double>(attacks);
  layer["sim.emits"] = static_cast<double>(
      bs::obs::metrics().counter_total(kEmits) - emits_before);
  layer["sim.flows"] = static_cast<double>(
      bs::obs::metrics().counter_total(kFlows) - flows_before);
  layer["sim.batches"] = static_cast<double>(batches);

  const double busy_s =
      static_cast<double>(after.busy_ns - pool_before.busy_ns) / 1e9;
  const double capacity_s = static_cast<double>(pool.size()) * wall_s;
  layer["exec.busy_s"] = busy_s;
  layer["exec.idle_s"] = capacity_s - busy_s;
  layer["exec.utilization"] = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
  layer["exec.tasks"] = static_cast<double>(after.tasks - pool_before.tasks);
  layer["exec.steals"] = static_cast<double>(after.steals - pool_before.steals);
}

}  // namespace perfbench
