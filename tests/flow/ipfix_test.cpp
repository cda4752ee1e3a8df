#include "flow/ipfix.hpp"

#include <gtest/gtest.h>

#include "util/byteio.hpp"
#include "util/rng.hpp"

namespace booterscope::flow::ipfix {
namespace {

using util::Duration;
using util::Timestamp;

FlowRecord make_flow(util::Rng& rng) {
  FlowRecord f;
  f.src = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.dst = net::Ipv4Addr{static_cast<std::uint32_t>(rng())};
  f.src_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.dst_port = static_cast<std::uint16_t>(rng.bounded(65536));
  f.proto = net::IpProto::kUdp;
  f.packets = rng.bounded(1 << 30) + 1;
  f.bytes = f.packets * 490;
  f.first = Timestamp::parse("2018-12-19").value() +
            Duration::millis(static_cast<std::int64_t>(rng.bounded(86'400'000)));
  f.last = f.first + Duration::seconds(30);
  f.src_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(4'000'000'000u))};
  f.dst_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(4'000'000'000u))};
  f.peer_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(65'000))};
  f.direction = rng.chance(0.5) ? Direction::kIngress : Direction::kEgress;
  f.sampling_rate = 10'000;
  return f;
}

TEST(Ipfix, RoundTripsEveryField) {
  util::Rng rng(1);
  FlowList flows;
  for (int i = 0; i < 50; ++i) flows.push_back(make_flow(rng));
  const Timestamp export_time = Timestamp::parse("2018-12-19T12:00:00").value();
  const auto message = encode_message(flows, 42, 1000, export_time);

  MessageDecoder decoder;
  const auto result = decoder.decode(message);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->observation_domain, 42u);
  EXPECT_EQ(result->sequence, 1000u);
  EXPECT_EQ(result->export_time, export_time);
  EXPECT_EQ(result->templates_seen, 1u);
  ASSERT_EQ(result->records.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(result->records[i], flows[i]) << "record " << i;
  }
}

TEST(Ipfix, DecoderCachesTemplateAcrossMessages) {
  util::Rng rng(2);
  const FlowList flows = {make_flow(rng)};
  const Timestamp t = Timestamp::parse("2018-12-19").value();
  const auto message = encode_message(flows, 7, 0, t);

  // Strip the template set from a second message: header (16) + template
  // set; re-frame data set only.
  MessageDecoder decoder;
  ASSERT_TRUE(decoder.decode(message).has_value());
  EXPECT_EQ(decoder.cached_template_count(), 1u);

  // Build a message with only a data set, relying on the cached template.
  std::vector<std::uint8_t> data_only;
  util::ByteWriter w(data_only);
  w.u16(kIpfixVersion);
  const std::size_t length_offset = data_only.size();
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(t.seconds()));
  w.u32(1);
  w.u32(7);
  // Copy the data set from the original message: it starts after the
  // template set. Header is 16 bytes; template set length is at offset 18.
  const std::size_t template_length =
      (static_cast<std::size_t>(message[18]) << 8) | message[19];
  const std::size_t data_offset = 16 + template_length;
  w.bytes(std::span{message}.subspan(data_offset));
  w.patch_u16(length_offset, static_cast<std::uint16_t>(data_only.size()));

  const auto result = decoder.decode(data_only);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->records.size(), 1u);
  EXPECT_EQ(result->records[0], flows[0]);
}

TEST(Ipfix, UnknownTemplateSkipsDataSet) {
  util::Rng rng(3);
  const FlowList flows = {make_flow(rng)};
  const Timestamp t = Timestamp::parse("2018-12-19").value();
  const auto message = encode_message(flows, 7, 0, t);

  // A fresh decoder fed only the data-set message must skip it.
  std::vector<std::uint8_t> data_only;
  util::ByteWriter w(data_only);
  w.u16(kIpfixVersion);
  const std::size_t length_offset = data_only.size();
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(t.seconds()));
  w.u32(0);
  w.u32(7);
  const std::size_t template_length =
      (static_cast<std::size_t>(message[18]) << 8) | message[19];
  w.bytes(std::span{message}.subspan(16 + template_length));
  w.patch_u16(length_offset, static_cast<std::uint16_t>(data_only.size()));

  MessageDecoder decoder;
  const auto result = decoder.decode(data_only);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->skipped_sets, 1u);
}

TEST(Ipfix, TemplatesArePerObservationDomain) {
  util::Rng rng(4);
  const FlowList flows = {make_flow(rng)};
  const Timestamp t = Timestamp::parse("2018-12-19").value();
  MessageDecoder decoder;
  ASSERT_TRUE(decoder.decode(encode_message(flows, 1, 0, t)).has_value());
  ASSERT_TRUE(decoder.decode(encode_message(flows, 2, 0, t)).has_value());
  EXPECT_EQ(decoder.cached_template_count(), 2u);
}

TEST(Ipfix, RejectsWrongVersion) {
  util::Rng rng(5);
  const FlowList flows = {make_flow(rng)};
  auto message =
      encode_message(flows, 1, 0, Timestamp::parse("2018-12-19").value());
  message[0] = 0;
  message[1] = 9;
  MessageDecoder decoder;
  const auto result = decoder.decode(message);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), util::DecodeError::kBadVersion);
}

TEST(Ipfix, SalvagesTruncatedMessage) {
  util::Rng rng(6);
  FlowList flows = {make_flow(rng)};
  auto message =
      encode_message(flows, 1, 0, Timestamp::parse("2018-12-19").value());
  message.resize(message.size() - 4);  // shorter than declared length
  MessageDecoder decoder;
  const auto result = decoder.decode(message);
  ASSERT_TRUE(result.has_value());
  // The template set arrived intact; the lone data record was cut off.
  EXPECT_EQ(result->templates_seen, 1u);
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->damage.count(util::DecodeError::kLengthOverflow), 2u);
  EXPECT_EQ(result->damage.count(util::DecodeError::kTruncatedRecord), 1u);
  EXPECT_EQ(result->damage.records_skipped, 1u);
}

TEST(Ipfix, EmptyFlowListYieldsTemplateOnlyMessage) {
  const auto message =
      encode_message({}, 9, 5, Timestamp::parse("2018-12-19").value());
  MessageDecoder decoder;
  const auto result = decoder.decode(message);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->records.empty());
  EXPECT_EQ(result->templates_seen, 1u);
  EXPECT_EQ(decoder.cached_template_count(), 1u);
}

TEST(Ipfix, CanonicalTemplateCoversFlowRecord) {
  const Template& tmpl = canonical_template();
  EXPECT_GE(tmpl.id, kFirstDataSetId);
  EXPECT_EQ(tmpl.fields.size(), 14u);
  EXPECT_EQ(tmpl.record_bytes(), 4u + 4 + 2 + 2 + 1 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 1 + 4);
}

}  // namespace
}  // namespace booterscope::flow::ipfix
