// Cross-module integration tests: the full export / wire / re-import /
// analysis chain, exactly as a deployment of this library would run it.
#include <gtest/gtest.h>

#include "core/victims.hpp"
#include "flow/anonymize.hpp"
#include "flow/collector.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "pcap/pcap_file.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "sim/selfattack.hpp"
#include "series_reference.hpp"

namespace booterscope {
namespace {

using util::Duration;
using util::Timestamp;

sim::LandscapeConfig tiny_config() {
  sim::LandscapeConfig config;
  config.start = Timestamp::parse("2018-12-01").value();
  config.days = 10;
  config.takedown = std::nullopt;
  config.attacks_per_day = 30.0;
  config.victim_population = 500;
  return config;
}

TEST(Integration, IpfixWireRoundTripPreservesAnalysis) {
  const sim::Internet internet{sim::InternetConfig{}};
  exec::ThreadPool pool(1);
  const auto result = sim::run_landscape(internet, tiny_config(), pool);
  const auto& flows = result.ixp.store.flows();
  ASSERT_GT(flows.size(), 500u);

  // Export everything as IPFIX messages in batches, then decode.
  flow::ipfix::MessageDecoder decoder;
  flow::FlowList decoded;
  constexpr std::size_t kBatch = 400;
  std::uint32_t sequence = 0;
  for (std::size_t offset = 0; offset < flows.size(); offset += kBatch) {
    const std::size_t count = std::min(kBatch, flows.size() - offset);
    const auto message = flow::ipfix::encode_message(
        std::span{flows}.subspan(offset, count), 1, sequence++,
        Timestamp::parse("2018-12-11").value());
    const auto parsed = decoder.decode(message);
    ASSERT_TRUE(parsed.has_value());
    decoded.insert(decoded.end(), parsed->records.begin(),
                   parsed->records.end());
  }
  ASSERT_EQ(decoded.size(), flows.size());

  // The victim analysis on decoded flows equals the analysis on originals.
  core::VictimAggregator original_agg;
  core::VictimAggregator decoded_agg;
  for (const auto& f : flows) original_agg.add(f);
  for (const auto& f : decoded) decoded_agg.add(f);
  EXPECT_EQ(original_agg.destination_count(), decoded_agg.destination_count());
  const auto original_reduction = original_agg.reduction();
  const auto decoded_reduction = decoded_agg.reduction();
  EXPECT_EQ(original_reduction.pass_both, decoded_reduction.pass_both);
  EXPECT_EQ(original_reduction.pass_rate_only, decoded_reduction.pass_rate_only);
}

TEST(Integration, NetflowV5ExportOfTier2Flows) {
  const sim::Internet internet{sim::InternetConfig{}};
  exec::ThreadPool pool(1);
  const auto result = sim::run_landscape(internet, tiny_config(), pool);
  const auto& flows = result.tier2.store.flows();
  ASSERT_GT(flows.size(), 100u);

  flow::NetflowV5ExportConfig config;
  config.boot_time = tiny_config().start - Duration::days(30);
  flow::NetflowV5Exporter exporter(config);
  std::size_t decoded_records = 0;
  const Timestamp now = Timestamp::parse("2018-12-11").value();
  for (const auto& f : flows) {
    if (const auto pdu = exporter.add(f, now)) {
      const auto parsed = flow::decode_netflow_v5(*pdu, config.boot_time);
      ASSERT_TRUE(parsed.has_value());
      decoded_records += parsed->records.size();
    }
  }
  if (const auto pdu = exporter.flush(now)) {
    const auto parsed = flow::decode_netflow_v5(*pdu, config.boot_time);
    ASSERT_TRUE(parsed.has_value());
    decoded_records += parsed->records.size();
  }
  EXPECT_EQ(decoded_records, flows.size());
}

TEST(Integration, AnonymizationPreservesTakedownAnalysis) {
  // The paper's data sets are anonymized; the entire takedown analysis
  // must be invariant under prefix-preserving anonymization (it only uses
  // ports, counters and timestamps — plus distinct-ness of sources).
  const sim::Internet internet{sim::InternetConfig{}};
  auto config = tiny_config();
  config.days = 12;
  exec::ThreadPool pool(1);
  const auto result = sim::run_landscape(internet, config, pool);
  flow::FlowList anonymized = result.ixp.store.flows();
  const flow::PrefixPreservingAnonymizer anonymizer(
      util::SipKey{0xfeed, 0xbeef});
  for (auto& f : anonymized) anonymizer.anonymize(f);

  const auto raw_series = scan::daily_packets_to_port(
      result.ixp.store.flows(), net::ports::kNtp, config.start, config.days);
  const auto anon_series = scan::daily_packets_to_port(
      anonymized, net::ports::kNtp, config.start, config.days);
  for (std::size_t d = 0; d < raw_series.bin_count(); ++d) {
    EXPECT_DOUBLE_EQ(raw_series.at(d), anon_series.at(d));
  }

  core::VictimAggregator raw_agg;
  core::VictimAggregator anon_agg;
  for (const auto& f : result.ixp.store.flows()) raw_agg.add(f);
  for (const auto& f : anonymized) anon_agg.add(f);
  EXPECT_EQ(raw_agg.destination_count(), anon_agg.destination_count());
  EXPECT_EQ(raw_agg.reduction().pass_both, anon_agg.reduction().pass_both);
}

TEST(Integration, SelfAttackCaptureSurvivesPcapRoundTrip) {
  sim::Internet internet{sim::InternetConfig{}};
  std::vector<sim::ReflectorPool> pools;
  for (const auto vector : net::kAllVectors) pools.emplace_back(vector, 50'000);
  std::unordered_map<net::AmpVector, const sim::ReflectorPool*> map;
  for (const auto& pool : pools) map.emplace(pool.vector(), &pool);
  std::vector<sim::BooterService> services;
  util::Rng rng(55);
  for (const auto& profile : sim::table1_booters()) {
    services.emplace_back(profile, map, rng.fork(profile.name));
  }
  sim::SelfAttackLab lab(internet, services, rng.fork("lab"));

  sim::SelfAttackSpec spec;
  spec.label = "pcap-roundtrip";
  spec.booter_index = 2;
  spec.vector = net::AmpVector::kNtp;
  spec.start = Timestamp::parse("2018-05-01T12:00:00").value();
  spec.duration = Duration::seconds(20);
  spec.reflector_count = 50;
  const auto result = lab.run(spec);

  // Turn the first seconds of capture flows into wire packets (one packet
  // per flow as a representative sample), write pcap, read back, and feed
  // a collector.
  std::vector<pcap::Packet> packets;
  for (const auto& f : result.capture) {
    pcap::Packet p;
    p.time = f.first;
    p.src_ip = f.src;
    p.dst_ip = f.dst;
    p.src_port = f.src_port;
    p.dst_port = f.dst_port;
    p.payload_bytes = static_cast<std::uint16_t>(
        f.mean_packet_size() - pcap::kMinWireBytes);
    packets.push_back(p);
  }
  const auto bytes = pcap::encode_pcap(packets);
  const auto parsed = pcap::decode_pcap(bytes);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->packets.size(), packets.size());
  EXPECT_EQ(parsed->skipped, 0u);

  flow::FlowCollector collector(flow::CollectorConfig{});
  flow::FlowList flows;
  for (const auto& p : parsed->packets) {
    flow::PacketObservation observation;
    observation.time = p.time;
    observation.tuple = p.tuple();
    observation.wire_bytes = static_cast<std::uint32_t>(p.wire_bytes());
    collector.observe(observation, flows);
  }
  collector.drain(flows);
  // Every distinct reflector that appeared in the capture re-appears.
  std::unordered_set<std::uint32_t> sources;
  for (const auto& f : flows) sources.insert(f.src.value());
  EXPECT_EQ(sources.size(), result.reflector_ips_observed.size());
}

}  // namespace
}  // namespace booterscope
