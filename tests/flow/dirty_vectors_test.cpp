// Golden dirty-telemetry vectors: hand-mangled NetFlow v5, IPFIX, pcap
// and BSF1 inputs, one family per defect class. Each scenario is a
// plain function so the aggregate check can re-run every vector in one
// process (ctest runs each TEST in isolation) and assert the suite
// exercises every DecodeError variant at least once — a new variant cannot
// be added without a vector that triggers it.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "flow/decode_options.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/store.hpp"
#include "pcap/pcap_file.hpp"
#include "util/byteio.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace booterscope {
namespace {

using util::DecodeError;
using util::Duration;
using util::Timestamp;

const Timestamp kBoot = Timestamp::parse("2018-12-01").value();

using ErrorSet = std::set<DecodeError>;

void note_damage(ErrorSet& seen, const util::DecodeDamage& damage) {
  for (DecodeError error : util::all_decode_errors()) {
    if (damage.count(error) > 0) seen.insert(error);
  }
}

flow::FlowRecord sample_flow(util::Rng& rng) {
  flow::FlowRecord f;
  f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.src_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.dst_port = 123;
  f.proto = net::IpProto::kUdp;
  f.packets = rng.bounded(10'000) + 1;
  f.bytes = f.packets * 468;
  f.first = kBoot + Duration::millis(static_cast<std::int64_t>(rng.bounded(60'000)));
  f.last = f.first + Duration::seconds(5);
  return f;
}

std::vector<std::uint8_t> v5_pdu(int flows_count, util::Rng& rng) {
  flow::NetflowV5ExportConfig config;
  config.boot_time = kBoot;
  flow::FlowList flows;
  for (int i = 0; i < flows_count; ++i) flows.push_back(sample_flow(rng));
  return flow::encode_netflow_v5(flows, config, 1, kBoot + Duration::hours(1));
}

std::vector<std::uint8_t> ipfix_message(int flows_count, util::Rng& rng,
                                        std::uint32_t sequence = 0) {
  flow::FlowList flows;
  for (int i = 0; i < flows_count; ++i) flows.push_back(sample_flow(rng));
  return flow::ipfix::encode_message(flows, 7, sequence,
                                     kBoot + Duration::hours(1));
}

void run_truncated_headers(ErrorSet& seen) {
  util::Rng rng(1);
  auto v5 = v5_pdu(1, rng);
  v5.resize(23);
  const auto v5_result = flow::decode_netflow_v5(v5, kBoot);
  ASSERT_FALSE(v5_result.has_value());
  EXPECT_EQ(v5_result.error(), DecodeError::kTruncatedHeader);
  seen.insert(v5_result.error());

  auto ipfix = ipfix_message(1, rng);
  ipfix.resize(15);
  flow::ipfix::MessageDecoder ipfix_decoder;
  const auto ipfix_result = ipfix_decoder.decode(ipfix);
  ASSERT_FALSE(ipfix_result.has_value());
  EXPECT_EQ(ipfix_result.error(), DecodeError::kTruncatedHeader);

  const std::vector<std::uint8_t> stub{0x42, 0x53};
  const auto store_result = flow::deserialize_flows(stub);
  ASSERT_FALSE(store_result.has_value());
  EXPECT_EQ(store_result.error(), DecodeError::kTruncatedHeader);
}

void run_wrong_versions(ErrorSet& seen) {
  util::Rng rng(2);
  auto v5 = v5_pdu(1, rng);
  v5[1] = 9;
  const auto v5_result = flow::decode_netflow_v5(v5, kBoot);
  ASSERT_FALSE(v5_result.has_value());
  EXPECT_EQ(v5_result.error(), DecodeError::kBadVersion);
  seen.insert(v5_result.error());

  auto ipfix = ipfix_message(1, rng);
  ipfix[1] = 9;  // NetFlow v9 framed as IPFIX
  flow::ipfix::MessageDecoder decoder;
  const auto ipfix_result = decoder.decode(ipfix);
  ASSERT_FALSE(ipfix_result.has_value());
  EXPECT_EQ(ipfix_result.error(), DecodeError::kBadVersion);
}

void run_bad_magic(ErrorSet& seen) {
  auto pcap_bytes = pcap::encode_pcap({});
  pcap_bytes[0] = 0xde;
  const auto pcap_result = pcap::decode_pcap(pcap_bytes);
  ASSERT_FALSE(pcap_result.has_value());
  EXPECT_EQ(pcap_result.error(), DecodeError::kBadMagic);
  seen.insert(pcap_result.error());

  auto store_bytes = flow::serialize_flows({});
  store_bytes[0] = 0x00;
  const auto store_result = flow::deserialize_flows(store_bytes);
  ASSERT_FALSE(store_result.has_value());
  EXPECT_EQ(store_result.error(), DecodeError::kBadMagic);
}

void run_v5_count_overclaim(ErrorSet& seen) {
  util::Rng rng(4);
  auto pdu = v5_pdu(2, rng);
  pdu[3] = 7;  // claims 7 records; only 2 on the wire
  const auto result = flow::decode_netflow_v5(pdu, kBoot);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->records.size(), 2u);
  EXPECT_EQ(result->declared_count, 7u);
  EXPECT_EQ(result->damage.count(DecodeError::kCountMismatch), 1u);
  EXPECT_EQ(result->damage.records_skipped, 5u);
  note_damage(seen, result->damage);
}

void run_ipfix_unknown_template(ErrorSet& seen) {
  util::Rng rng(6);
  const auto message = ipfix_message(1, rng);
  // Re-frame the data set alone: its template id was never announced to
  // this decoder, so the whole set is skipped.
  std::vector<std::uint8_t> data_only;
  util::ByteWriter w(data_only);
  w.bytes(std::span{message}.first(flow::ipfix::kMessageHeaderBytes));
  const std::size_t template_length =
      (static_cast<std::size_t>(message[18]) << 8) | message[19];
  w.bytes(std::span{message}.subspan(flow::ipfix::kMessageHeaderBytes +
                                     template_length));
  w.patch_u16(2, static_cast<std::uint16_t>(data_only.size()));
  flow::ipfix::MessageDecoder decoder;
  const auto result = decoder.decode(data_only);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->skipped_sets, 1u);
  EXPECT_GT(result->damage.count(DecodeError::kUnknownTemplate), 0u);
  note_damage(seen, result->damage);
}

void run_ipfix_truncation(ErrorSet& seen) {
  util::Rng rng(7);
  auto message = ipfix_message(1, rng);
  message.resize(message.size() - 4);
  flow::ipfix::MessageDecoder decoder;
  const auto result = decoder.decode(message);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->damage.count(DecodeError::kLengthOverflow), 0u);
  EXPECT_GT(result->damage.count(DecodeError::kTruncatedRecord), 0u);
  note_damage(seen, result->damage);
}

void run_ipfix_bad_sets(ErrorSet& seen) {
  std::vector<std::uint8_t> bytes;
  util::ByteWriter w(bytes);
  w.u16(flow::ipfix::kIpfixVersion);
  const std::size_t length_offset = bytes.size();
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(kBoot.seconds()));
  w.u32(0);  // sequence
  w.u32(7);  // observation domain
  w.u16(flow::ipfix::kTemplateSetId);
  w.u16(3);  // set length < 4
  w.patch_u16(length_offset, static_cast<std::uint16_t>(bytes.size()));
  flow::ipfix::MessageDecoder decoder;
  const auto short_set = decoder.decode(bytes);
  ASSERT_TRUE(short_set.has_value());
  EXPECT_GT(short_set->damage.count(DecodeError::kBadSetLength), 0u);
  note_damage(seen, short_set->damage);

  // Template advertising a reserved id (< 256) is rejected as malformed.
  std::vector<std::uint8_t> bad_template;
  util::ByteWriter w2(bad_template);
  w2.u16(flow::ipfix::kIpfixVersion);
  const std::size_t length_offset2 = bad_template.size();
  w2.u16(0);
  w2.u32(static_cast<std::uint32_t>(kBoot.seconds()));
  w2.u32(0);
  w2.u32(7);
  w2.u16(flow::ipfix::kTemplateSetId);
  w2.u16(12);   // set header + template header + one field
  w2.u16(100);  // reserved template id
  w2.u16(1);
  w2.u16(8);    // field type
  w2.u16(4);    // field length
  w2.patch_u16(length_offset2, static_cast<std::uint16_t>(bad_template.size()));
  const auto bad = decoder.decode(bad_template);
  ASSERT_TRUE(bad.has_value());
  EXPECT_GT(bad->damage.count(DecodeError::kBadTemplate), 0u);
  note_damage(seen, bad->damage);

  // Neither defect poisons the decoder: a valid message decodes cleanly.
  util::Rng rng(5);
  const auto good = decoder.decode(ipfix_message(3, rng));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->records.size(), 3u);
  EXPECT_TRUE(good->damage.clean());
}

void run_sequence_dedup(ErrorSet& seen) {
  util::Rng rng(8);
  const auto ipfix = ipfix_message(1, rng, 99);

  // Default decoders accept replays (stateless replay tooling relies on it).
  flow::ipfix::MessageDecoder lax;
  EXPECT_TRUE(lax.decode(ipfix).has_value());
  EXPECT_TRUE(lax.decode(ipfix).has_value());
  EXPECT_EQ(lax.duplicates_rejected(), 0u);

  flow::DecoderOptions strict_options;
  strict_options.dedup_sequences = true;
  flow::ipfix::MessageDecoder strict(strict_options);
  EXPECT_TRUE(strict.decode(ipfix).has_value());
  const auto dup = strict.decode(ipfix);
  ASSERT_FALSE(dup.has_value());
  EXPECT_EQ(dup.error(), DecodeError::kDuplicateSequence);
  EXPECT_EQ(strict.duplicates_rejected(), 1u);
  seen.insert(dup.error());
}

void run_bounded_template_cache() {
  util::Rng rng(9);
  flow::DecoderOptions options;
  options.max_templates = 2;
  flow::ipfix::MessageDecoder decoder(options);
  // Templates are cached per observation domain: four domains announcing
  // the same template id need four slots.
  for (std::uint32_t domain = 0; domain < 4; ++domain) {
    const flow::FlowList flows = {sample_flow(rng)};
    ASSERT_TRUE(
        decoder.decode(flow::ipfix::encode_message(flows, domain, 0, kBoot))
            .has_value());
  }
  EXPECT_LE(decoder.cached_template_count(), 2u);
  EXPECT_EQ(decoder.templates_evicted(), 2u);
}

void run_store_io_failure(ErrorSet& seen) {
  const auto result =
      flow::read_flow_file("/nonexistent/booterscope/flows.bsf");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), DecodeError::kIo);
  seen.insert(result.error());
}

void run_pcap_truncation(ErrorSet& seen) {
  std::vector<pcap::Packet> packets(2);
  packets[0].time = kBoot;
  packets[0].src_ip = net::Ipv4Addr{192, 0, 2, 1};
  packets[0].dst_ip = net::Ipv4Addr{203, 0, 113, 7};
  packets[1] = packets[0];
  packets[1].time = kBoot + Duration::seconds(1);
  auto bytes = pcap::encode_pcap(packets);
  bytes.resize(bytes.size() - 3);
  const auto result = pcap::decode_pcap(bytes);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->packets.size(), 1u);
  EXPECT_GT(result->damage.count(DecodeError::kTruncatedRecord), 0u);
  note_damage(seen, result->damage);
}

TEST(DirtyVectors, TruncatedHeadersAreFatal) {
  ErrorSet seen;
  run_truncated_headers(seen);
}
TEST(DirtyVectors, WrongVersionsAreFatal) {
  ErrorSet seen;
  run_wrong_versions(seen);
}
TEST(DirtyVectors, BadMagicIsFatal) {
  ErrorSet seen;
  run_bad_magic(seen);
}
TEST(DirtyVectors, V5CountOverclaimSalvagesPrefix) {
  ErrorSet seen;
  run_v5_count_overclaim(seen);
}
TEST(DirtyVectors, IpfixUnknownTemplateSkipsDataSet) {
  ErrorSet seen;
  run_ipfix_unknown_template(seen);
}
TEST(DirtyVectors, IpfixTruncationYieldsOverflowAndTruncatedRecord) {
  ErrorSet seen;
  run_ipfix_truncation(seen);
}
TEST(DirtyVectors, IpfixBadSetLengthAndBadTemplate) {
  ErrorSet seen;
  run_ipfix_bad_sets(seen);
}
TEST(DirtyVectors, SequenceDedupIsOptIn) {
  ErrorSet seen;
  run_sequence_dedup(seen);
}
TEST(DirtyVectors, TemplateCacheIsBounded) { run_bounded_template_cache(); }
TEST(DirtyVectors, StoreIoFailureIsReported) {
  ErrorSet seen;
  run_store_io_failure(seen);
}
TEST(DirtyVectors, PcapTruncationSalvagesPrefix) {
  ErrorSet seen;
  run_pcap_truncation(seen);
}

TEST(DirtyVectors, EveryDecodeErrorVariantExercised) {
  ErrorSet seen;
  run_truncated_headers(seen);
  run_wrong_versions(seen);
  run_bad_magic(seen);
  run_v5_count_overclaim(seen);
  run_ipfix_unknown_template(seen);
  run_ipfix_truncation(seen);
  run_ipfix_bad_sets(seen);
  run_sequence_dedup(seen);
  run_store_io_failure(seen);
  run_pcap_truncation(seen);
  for (DecodeError error : util::all_decode_errors()) {
    EXPECT_TRUE(seen.contains(error))
        << "no dirty vector triggers " << util::to_string(error);
  }
}

}  // namespace
}  // namespace booterscope
