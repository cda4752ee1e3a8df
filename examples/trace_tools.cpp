// trace_tools: a command-line multitool for booterscope flow traces.
//
//   trace_tools gen --out trace.bsf [--days 7] [--seed 7] [--vantage ixp]
//       Simulate a landscape and write one vantage point's flows (BSF1).
//   trace_tools stats --in trace.bsf
//       Per-port traffic summary + NTP attack classification.
//   trace_tools anonymize --in a.bsf --out b.bsf [--key0 N --key1 N]
//       Prefix-preserving (Crypto-PAn style) re-anonymization.
//   trace_tools to-pcap --in a.bsf --out a.pcap [--limit 5000]
//       Representative packets per flow, tcpdump/wireshark readable.
//   trace_tools export-ipfix --in a.bsf --out a.ipfix
//       Re-export as standard IPFIX messages (and verify by re-decoding).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "core/victims.hpp"
#include "exec/thread_pool.hpp"
#include "flow/anonymize.hpp"
#include "flow/ipfix.hpp"
#include "flow/store.hpp"
#include "pcap/pcap_file.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace booterscope;

namespace {

int usage() {
  std::cerr <<
      "usage: trace_tools <gen|stats|anonymize|to-pcap|export-ipfix> "
      "[--in F] [--out F]\n          [--days N] [--seed N] [--vantage "
      "ixp|tier1|tier2] [--limit N]\n          [--key0 N] [--key1 N]\n";
  return 2;
}

int cmd_gen(const util::CliArgs& args) {
  const auto out = args.value("out");
  if (!out) return usage();
  sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.seed = static_cast<std::uint64_t>(args.int_or("seed", 7));
  config.start = util::Timestamp::parse("2018-11-01").value();
  config.days = static_cast<int>(args.int_or("days", 7));
  config.takedown = std::nullopt;
  config.attacks_per_day = args.double_or("attacks-per-day", 120.0);
  exec::ThreadPool pool(0);  // all cores; the output is pool-size invariant
  const auto result = sim::run_landscape(internet, config, pool);
  const std::string vantage = args.value_or("vantage", "ixp");
  const flow::FlowStore* store = &result.ixp.store;
  if (vantage == "tier1") store = &result.tier1.store;
  if (vantage == "tier2") store = &result.tier2.store;
  if (!flow::write_flow_file(*out, store->flows())) {
    std::cerr << "cannot write " << *out << "\n";
    return 1;
  }
  std::cout << "wrote " << store->size() << " flows (" << vantage << ", "
            << config.days << " days, seed " << config.seed << ") to " << *out
            << "\n";
  return 0;
}

int cmd_stats(const util::CliArgs& args) {
  const auto in = args.value("in");
  if (!in) return usage();
  const auto flows = flow::read_flow_file(*in);
  if (!flows) {
    std::cerr << "cannot read " << *in << "\n";
    return 1;
  }

  std::map<std::uint16_t, std::pair<double, double>> per_port;  // pkts, bytes
  auto service_port = [](const flow::FlowRecord& f) -> std::uint16_t {
    if (net::vector_for_port(f.dst_port) || f.dst_port < 1024) return f.dst_port;
    if (net::vector_for_port(f.src_port) || f.src_port < 1024) return f.src_port;
    return 0;
  };
  for (const auto& f : *flows) {
    auto& [packets, bytes] = per_port[service_port(f)];
    packets += f.scaled_packets();
    bytes += f.scaled_bytes();
  }
  util::Table table({"service port", "scaled packets", "scaled volume"});
  for (const auto& [port, totals] : per_port) {
    if (totals.first < 1.0) continue;
    table.row()
        .add(port == 0 ? std::string("other") : std::to_string(port))
        .add(util::format_count(totals.first))
        .add(util::format_bps(totals.second * 8.0) + "·s");
  }
  std::cout << flows->size() << " flow records in " << *in << "\n\n";
  table.print(std::cout);

  core::VictimAggregator aggregator;
  for (const auto& f : *flows) aggregator.add(f);
  const auto reduction = aggregator.reduction();
  std::cout << "\nNTP reflection: " << reduction.total
            << " destinations, conservative filter confirms "
            << reduction.pass_both << "\n";
  return 0;
}

int cmd_anonymize(const util::CliArgs& args) {
  const auto in = args.value("in");
  const auto out = args.value("out");
  if (!in || !out) return usage();
  auto flows = flow::read_flow_file(*in);
  if (!flows) {
    std::cerr << "cannot read " << *in << "\n";
    return 1;
  }
  const util::SipKey key{
      static_cast<std::uint64_t>(args.int_or("key0", 0x626f6f746572)),
      static_cast<std::uint64_t>(args.int_or("key1", 0x73636f7065))};
  const flow::PrefixPreservingAnonymizer anonymizer(key);
  for (auto& f : *flows) anonymizer.anonymize(f);
  if (!flow::write_flow_file(*out, *flows)) {
    std::cerr << "cannot write " << *out << "\n";
    return 1;
  }
  std::cout << "anonymized " << flows->size() << " flows -> " << *out << "\n";
  return 0;
}

int cmd_to_pcap(const util::CliArgs& args) {
  const auto in = args.value("in");
  const auto out = args.value("out");
  if (!in || !out) return usage();
  const auto flows = flow::read_flow_file(*in);
  if (!flows) {
    std::cerr << "cannot read " << *in << "\n";
    return 1;
  }
  const auto limit = static_cast<std::size_t>(args.int_or("limit", 5'000));
  std::vector<pcap::Packet> packets;
  for (const auto& f : *flows) {
    if (packets.size() >= limit) break;
    if (f.proto != net::IpProto::kUdp) continue;
    pcap::Packet p;
    p.time = f.first;
    p.src_ip = f.src;
    p.dst_ip = f.dst;
    p.src_port = f.src_port;
    p.dst_port = f.dst_port;
    const double size = f.mean_packet_size();
    p.payload_bytes = static_cast<std::uint16_t>(
        size > pcap::kMinWireBytes ? size - pcap::kMinWireBytes : 0);
    packets.push_back(p);
  }
  if (!pcap::write_pcap_file(*out, packets)) {
    std::cerr << "cannot write " << *out << "\n";
    return 1;
  }
  std::cout << "wrote " << packets.size() << " representative packets to "
            << *out << "\n";
  return 0;
}

int cmd_export_ipfix(const util::CliArgs& args) {
  const auto in = args.value("in");
  const auto out = args.value("out");
  if (!in || !out) return usage();
  const auto flows = flow::read_flow_file(*in);
  if (!flows) {
    std::cerr << "cannot read " << *in << "\n";
    return 1;
  }
  std::ofstream file(*out, std::ios::binary);
  if (!file) {
    std::cerr << "cannot write " << *out << "\n";
    return 1;
  }
  constexpr std::size_t kBatch = 400;
  std::uint32_t sequence = 0;
  std::size_t bytes = 0;
  flow::ipfix::MessageDecoder verifier;
  std::size_t verified = 0;
  for (std::size_t offset = 0; offset < flows->size(); offset += kBatch) {
    const std::size_t count = std::min(kBatch, flows->size() - offset);
    const auto message = flow::ipfix::encode_message(
        std::span{*flows}.subspan(offset, count), 1, sequence++,
        (*flows)[offset].first);
    file.write(reinterpret_cast<const char*>(message.data()),
               static_cast<std::streamsize>(message.size()));
    bytes += message.size();
    if (const auto parsed = verifier.decode(message)) {
      verified += parsed->records.size();
    }
  }
  std::cout << "exported " << flows->size() << " flows as "
            << util::format_count(static_cast<double>(bytes))
            << "B of IPFIX (" << sequence << " messages, " << verified
            << " records verified by re-decoding)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional().front();
  if (command == "gen") return cmd_gen(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "anonymize") return cmd_anonymize(args);
  if (command == "to-pcap") return cmd_to_pcap(args);
  if (command == "export-ipfix") return cmd_export_ipfix(args);
  return usage();
}
