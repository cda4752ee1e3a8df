// Microbenchmarks (google-benchmark) for the hot data-plane paths: wire
// codecs, flow aggregation, anonymization, classification and the
// statistics kernel. These are throughput numbers for the library itself,
// not paper reproductions.
#include <benchmark/benchmark.h>

#include "core/victims.hpp"
#include "flow/anonymize.hpp"
#include "flow/collector.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "stats/welch.hpp"
#include "topo/routing.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "exec/thread_pool.hpp"

namespace {

using namespace booterscope;

flow::FlowList make_flows(std::size_t count, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  flow::FlowList flows;
  flows.reserve(count);
  const util::Timestamp base = util::Timestamp::parse("2018-12-19").value();
  for (std::size_t i = 0; i < count; ++i) {
    flow::FlowRecord f;
    f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
    f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng.bounded(1 << 16))};
    f.src_port = net::ports::kNtp;
    f.dst_port = static_cast<std::uint16_t>(rng.bounded(65536));
    f.proto = net::IpProto::kUdp;
    f.packets = rng.bounded(1000) + 1;
    f.bytes = f.packets * 490;
    f.first = base + util::Duration::seconds(
                         static_cast<std::int64_t>(rng.bounded(86'400)));
    f.last = f.first + util::Duration::seconds(30);
    f.sampling_rate = 10'000;
    flows.push_back(f);
  }
  return flows;
}

void BM_NetflowV5Encode(benchmark::State& state) {
  const auto flows = make_flows(30);
  const flow::NetflowV5ExportConfig config{
      util::Timestamp::parse("2018-12-01").value(), 0, 0, 1000};
  const util::Timestamp now = util::Timestamp::parse("2018-12-19").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::encode_netflow_v5(flows, config, 0, now));
  }
  state.SetItemsProcessed(state.iterations() * 30);
}
BENCHMARK(BM_NetflowV5Encode);

void BM_NetflowV5Decode(benchmark::State& state) {
  const auto flows = make_flows(30);
  const flow::NetflowV5ExportConfig config{
      util::Timestamp::parse("2018-12-01").value(), 0, 0, 1000};
  const auto pdu = flow::encode_netflow_v5(
      flows, config, 0, util::Timestamp::parse("2018-12-19").value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::decode_netflow_v5(pdu, config.boot_time));
  }
  state.SetItemsProcessed(state.iterations() * 30);
  state.SetBytesProcessed(state.iterations() * static_cast<long>(pdu.size()));
}
BENCHMARK(BM_NetflowV5Decode);

void BM_IpfixEncode(benchmark::State& state) {
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)));
  const util::Timestamp now = util::Timestamp::parse("2018-12-19").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::ipfix::encode_message(flows, 1, 0, now));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IpfixEncode)->Arg(64)->Arg(512);

void BM_IpfixDecode(benchmark::State& state) {
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)));
  const auto message = flow::ipfix::encode_message(
      flows, 1, 0, util::Timestamp::parse("2018-12-19").value());
  flow::ipfix::MessageDecoder decoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.decode(message));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long>(message.size()));
}
BENCHMARK(BM_IpfixDecode)->Arg(64)->Arg(512);

void BM_CollectorObserve(benchmark::State& state) {
  util::Rng rng(3);
  const util::Timestamp base = util::Timestamp::parse("2018-12-19").value();
  std::vector<flow::PacketObservation> packets;
  for (int i = 0; i < 4096; ++i) {
    flow::PacketObservation p;
    p.time = base + util::Duration::millis(i);
    p.tuple = net::FiveTuple{
        net::Ipv4Addr{static_cast<std::uint32_t>(rng.bounded(512))},
        net::Ipv4Addr{1, 2, 3, 4}, net::ports::kNtp,
        static_cast<std::uint16_t>(rng.bounded(65536)), net::IpProto::kUdp};
    p.wire_bytes = 490;
    packets.push_back(p);
  }
  flow::FlowCollector collector(flow::CollectorConfig{});
  flow::FlowList out;
  std::size_t cursor = 0;
  for (auto _ : state) {
    collector.observe(packets[cursor], out);
    cursor = (cursor + 1) % packets.size();
    if (out.size() > 100'000) out.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CollectorObserve);

void BM_Anonymize(benchmark::State& state) {
  const flow::PrefixPreservingAnonymizer anonymizer(util::SipKey{1, 2});
  util::Rng rng(4);
  std::uint32_t addr = static_cast<std::uint32_t>(rng());
  for (auto _ : state) {
    const auto result = anonymizer.anonymize(net::Ipv4Addr{addr});
    benchmark::DoNotOptimize(result);
    addr = addr * 1664525u + 1013904223u;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Anonymize);

void BM_SipHash(benchmark::State& state) {
  std::uint64_t value = 42;
  for (auto _ : state) {
    value = util::siphash24(util::SipKey{1, 2}, value);
    benchmark::DoNotOptimize(value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SipHash);

void BM_VictimAggregation(benchmark::State& state) {
  const auto flows = make_flows(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    core::VictimAggregator aggregator;
    for (const auto& f : flows) aggregator.add(f);
    benchmark::DoNotOptimize(aggregator.destination_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VictimAggregation)->Arg(10'000);

void BM_WelchTest(benchmark::State& state) {
  util::Rng rng(8);
  std::vector<double> before;
  std::vector<double> after;
  for (int i = 0; i < 40; ++i) {
    before.push_back(util::normal(rng, 100.0, 10.0));
    after.push_back(util::normal(rng, 60.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::welch_t_test(before, after));
  }
}
BENCHMARK(BM_WelchTest);

// Parallel-pipeline scaling benchmarks. The Arg is the worker count, so
// CI can assert the speedup ratio between the Arg(1) and Arg(4) rows of
// the same benchmark; every Arg produces identical bytes (DESIGN.md §9).

void BM_PoolParallelFor(benchmark::State& state) {
  exec::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> sums(1024, 0);
  for (auto _ : state) {
    pool.parallel_for(sums.size(), [&](std::size_t i) {
      std::uint64_t h = i;
      for (int k = 0; k < 4096; ++k) {
        h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sums[i] = h;
    });
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(sums.size()));
}
BENCHMARK(BM_PoolParallelFor)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMicrosecond);

void BM_ParallelLandscape(benchmark::State& state) {
  const sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.start = util::Timestamp::parse("2018-11-01").value();
  config.days = 8;
  config.takedown = std::nullopt;
  config.attacks_per_day = 60.0;
  config.ixp_window.reset();
  config.tier1_window.reset();
  config.tier2_window.reset();
  exec::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto result = sim::run_landscape(internet, config, pool);
    benchmark::DoNotOptimize(result.ixp.store.flows().size());
  }
  state.SetItemsProcessed(state.iterations() * config.days);
}
BENCHMARK(BM_ParallelLandscape)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

void BM_RouterBuild(benchmark::State& state) {
  // Full policy-routing table computation for the default world (273 ASes
  // with a meshed route server).
  const sim::InternetConfig config;
  sim::Internet internet{config};
  for (auto _ : state) {
    topo::Router router(internet.topology());
    benchmark::DoNotOptimize(router.as_count());
  }
}
BENCHMARK(BM_RouterBuild)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
