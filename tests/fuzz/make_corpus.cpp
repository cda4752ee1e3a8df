// Regenerates the committed seed corpus under tests/fuzz/corpus/.
//
//   ./fuzz_make_corpus tests/fuzz/corpus
//
// Seeds are valid encodings plus the dirty-vector defect classes
// (truncation, count overclaim, bad magic), giving the fuzzer — and the
// GCC corpus-replay tests — immediate reach into both the happy path and
// every salvage branch. Rerun and recommit after any wire-format change.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/store.hpp"
#include "pcap/pcap_file.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope {
namespace {

namespace fs = std::filesystem;

using util::Duration;
using util::Timestamp;

const Timestamp kBoot = Timestamp::parse("2018-12-01").value();

flow::FlowRecord sample_flow(util::Rng& rng) {
  flow::FlowRecord f;
  f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.src_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.dst_port = rng.chance(0.5) ? std::uint16_t{123} : std::uint16_t{11211};
  f.proto = net::IpProto::kUdp;
  f.packets = rng.bounded(10'000) + 1;
  f.bytes = f.packets * 468;
  f.first = kBoot + Duration::millis(static_cast<std::int64_t>(rng.bounded(60'000)));
  f.last = f.first + Duration::seconds(5);
  return f;
}

flow::FlowList sample_flows(int count, std::uint64_t seed) {
  util::Rng rng(seed);
  flow::FlowList flows;
  for (int i = 0; i < count; ++i) flows.push_back(sample_flow(rng));
  return flows;
}

void write_seed(const fs::path& dir, const std::string& name,
                std::vector<std::uint8_t> bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::cout << (dir / name).string() << ": " << bytes.size() << " bytes\n";
}

std::vector<std::uint8_t> truncated(std::vector<std::uint8_t> bytes,
                                    std::size_t cut) {
  bytes.resize(bytes.size() > cut ? bytes.size() - cut : 1);
  return bytes;
}

}  // namespace
}  // namespace booterscope

int main(int argc, char** argv) {
  using namespace booterscope;
  if (argc != 2) {
    std::cerr << "usage: fuzz_make_corpus <corpus-dir>\n";
    return 1;
  }
  const fs::path root(argv[1]);

  {
    flow::NetflowV5ExportConfig config;
    config.boot_time = kBoot;
    const auto one = flow::encode_netflow_v5(sample_flows(1, 1), config, 1,
                                             kBoot + Duration::hours(1));
    auto many = flow::encode_netflow_v5(sample_flows(24, 2), config, 2,
                                        kBoot + Duration::hours(2));
    write_seed(root / "fuzz_netflow_v5", "one_record.bin", one);
    write_seed(root / "fuzz_netflow_v5", "full_pdu.bin", many);
    write_seed(root / "fuzz_netflow_v5", "truncated.bin", truncated(many, 17));
    auto overclaim = one;
    overclaim[3] = 30;  // header claims 30 records, one on the wire
    write_seed(root / "fuzz_netflow_v5", "count_overclaim.bin", overclaim);
  }

  {
    const auto valid = flow::ipfix::encode_message(sample_flows(6, 4), 7, 1,
                                                   kBoot + Duration::hours(1));
    write_seed(root / "fuzz_ipfix", "template_and_data.bin", valid);
    write_seed(root / "fuzz_ipfix", "truncated.bin", truncated(valid, 5));
    auto wrong_version = valid;
    wrong_version[1] = 9;
    write_seed(root / "fuzz_ipfix", "v9_framed_as_ipfix.bin", wrong_version);
  }

  {
    util::Rng rng(6);
    std::vector<pcap::Packet> packets(3);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      packets[i].time = kBoot + Duration::seconds(static_cast<std::int64_t>(i));
      packets[i].src_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
      packets[i].dst_ip = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
      packets[i].src_port = 123;
      packets[i].dst_port = static_cast<std::uint16_t>(rng.bounded(65536));
      packets[i].payload_bytes = 468;
    }
    const auto valid = pcap::encode_pcap(packets);
    write_seed(root / "fuzz_pcap", "three_packets.bin", valid);
    write_seed(root / "fuzz_pcap", "truncated.bin", truncated(valid, 11));
    auto bad_magic = valid;
    bad_magic[0] = 0xde;
    write_seed(root / "fuzz_pcap", "bad_magic.bin", bad_magic);
  }

  {
    const auto valid = flow::serialize_flows(sample_flows(8, 7));
    write_seed(root / "fuzz_store", "eight_flows.bin", valid);
    write_seed(root / "fuzz_store", "torn_write.bin", truncated(valid, 21));
    auto bad_magic = valid;
    bad_magic[0] = 0x00;
    write_seed(root / "fuzz_store", "bad_magic.bin", bad_magic);
    write_seed(root / "fuzz_store", "empty_list.bin",
               flow::serialize_flows({}));
  }

  return 0;
}
