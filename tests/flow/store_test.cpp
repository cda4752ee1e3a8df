#include "flow/store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>

#include "flow/batch.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace booterscope::flow {
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
  f.packets = rng.bounded(1000) + 1;
  f.bytes = f.packets * 490;
  f.first = Timestamp::from_seconds(static_cast<std::int64_t>(rng.bounded(1'000'000)));
  f.last = f.first + Duration::seconds(10);
  f.src_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(65000))};
  f.dst_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(65000))};
  f.peer_asn = net::Asn{static_cast<std::uint32_t>(rng.bounded(65000))};
  f.direction = rng.chance(0.5) ? Direction::kIngress : Direction::kEgress;
  f.sampling_rate = 10'000;
  return f;
}

TEST(FlowStore, SerializationRoundTrip) {
  util::Rng rng(1);
  FlowList flows;
  for (int i = 0; i < 200; ++i) flows.push_back(make_flow(rng));
  const auto bytes = serialize_flows(flows);
  const auto decoded = deserialize_flows(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ((*decoded)[i], flows[i]) << i;
  }
}

TEST(FlowStore, DeserializeRejectsBadMagic) {
  util::Rng rng(2);
  auto bytes = serialize_flows(FlowList{make_flow(rng)});
  bytes[0] ^= 0xff;
  const auto decoded = deserialize_flows(bytes);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), util::DecodeError::kBadMagic);
}

TEST(FlowStore, DeserializeSalvagesTruncation) {
  util::Rng rng(3);
  const FlowList flows{make_flow(rng), make_flow(rng)};
  auto bytes = serialize_flows(flows);
  bytes.resize(bytes.size() - 1);  // cuts one byte off the second record
  util::DecodeDamage damage;
  const auto decoded = deserialize_flows(bytes, &damage);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0], flows[0]);
  EXPECT_EQ(damage.count(util::DecodeError::kCountMismatch), 1u);
  EXPECT_EQ(damage.records_skipped, 1u);
}

TEST(FlowStore, DeserializeNeverTrustsDeclaredCount) {
  // A header that claims 2^61 records must fail the whole-record fit check
  // (the multiply would wrap a 64-bit size) instead of reserving memory.
  util::Rng rng(6);
  auto bytes = serialize_flows(FlowList{make_flow(rng)});
  for (std::size_t i = 4; i < 12; ++i) bytes[i] = 0xff;
  util::DecodeDamage damage;
  const auto decoded = deserialize_flows(bytes, &damage);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 1u);  // the one real record is salvaged
  EXPECT_EQ(damage.count(util::DecodeError::kCountMismatch), 1u);
}

TEST(FlowStore, FileRoundTrip) {
  util::Rng rng(4);
  FlowList flows;
  for (int i = 0; i < 50; ++i) flows.push_back(make_flow(rng));
  const std::string path = "/tmp/booterscope_store_test.bsf";
  ASSERT_TRUE(write_flow_file(path, flows));
  const auto decoded = read_flow_file(path);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, flows);
  std::remove(path.c_str());
}

TEST(FlowStore, ReadMissingFileFails) {
  const auto decoded = read_flow_file("/tmp/definitely-not-there.bsf");
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error(), util::DecodeError::kIo);
}

TEST(FlowStore, PortFilters) {
  util::Rng rng(5);
  FlowStore store;
  for (int i = 0; i < 100; ++i) store.add(make_flow(rng));
  FlowRecord ntp_bound = make_flow(rng);
  ntp_bound.dst_port = net::ports::kNtp;
  store.add(ntp_bound);
  FlowRecord ntp_reply = make_flow(rng);
  ntp_reply.src_port = net::ports::kNtp;
  store.add(ntp_reply);

  const FlowStore to = store.to_port(net::ports::kNtp);
  for (const auto& f : to.flows()) EXPECT_EQ(f.dst_port, net::ports::kNtp);
  EXPECT_GE(to.size(), 1u);
  const FlowStore from = store.from_port(net::ports::kNtp);
  for (const auto& f : from.flows()) EXPECT_EQ(f.src_port, net::ports::kNtp);
  EXPECT_GE(from.size(), 1u);
}

TEST(FlowStore, SortByTime) {
  util::Rng rng(6);
  FlowStore store;
  for (int i = 0; i < 100; ++i) store.add(make_flow(rng));
  store.sort_by_time();
  for (std::size_t i = 1; i < store.size(); ++i) {
    EXPECT_LE(store.flows()[i - 1].first, store.flows()[i].first);
  }
}

TEST(FlowStore, ScaledTotals) {
  FlowRecord f;
  f.packets = 3;
  f.bytes = 300;
  f.sampling_rate = 100;
  FlowStore store;
  store.add(f);
  store.add(f);
  EXPECT_DOUBLE_EQ(store.total_scaled_packets(), 600.0);
  EXPECT_DOUBLE_EQ(store.total_scaled_bytes(), 60'000.0);
}

TEST(FlowStore, StreamingDeserializeMatchesMaterialized) {
  util::Rng rng(11);
  FlowList flows;
  for (int i = 0; i < 300; ++i) flows.push_back(make_flow(rng));
  const auto bytes = serialize_flows(flows);

  // A batch size that does not divide the record count, so the final
  // delivery is a partial batch.
  CollectingSink sink;
  const auto count = deserialize_flows_stream(bytes, sink, 64);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, flows.size());
  EXPECT_EQ(sink.flows(0), flows);
}

TEST(FlowStore, StreamingDeserializeSalvagesTruncationLikeMaterialized) {
  util::Rng rng(12);
  FlowList flows;
  for (int i = 0; i < 5; ++i) flows.push_back(make_flow(rng));
  auto bytes = serialize_flows(flows);
  bytes.resize(bytes.size() - 1);  // cuts one byte off the last record

  util::DecodeDamage materialized_damage;
  const auto materialized = deserialize_flows(bytes, &materialized_damage);
  ASSERT_TRUE(materialized.has_value());

  util::DecodeDamage streamed_damage;
  CollectingSink sink;
  const auto count = deserialize_flows_stream(bytes, sink, 2, &streamed_damage);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, materialized->size());
  EXPECT_EQ(sink.flows(0), *materialized);
  EXPECT_EQ(streamed_damage.records_skipped,
            materialized_damage.records_skipped);
  EXPECT_EQ(streamed_damage.count(util::DecodeError::kCountMismatch),
            materialized_damage.count(util::DecodeError::kCountMismatch));
}

TEST(FlowStore, StreamingDeserializeRejectsBadMagic) {
  util::Rng rng(13);
  auto bytes = serialize_flows(FlowList{make_flow(rng)});
  bytes[0] ^= 0xff;
  CollectingSink sink;
  const auto count = deserialize_flows_stream(bytes, sink);
  ASSERT_FALSE(count.has_value());
  EXPECT_EQ(count.error(), util::DecodeError::kBadMagic);
  EXPECT_TRUE(sink.flows(0).empty());
}

TEST(FlowStore, StreamingFileReadMatchesMaterializedRead) {
  util::Rng rng(14);
  FlowList flows;
  for (int i = 0; i < 50; ++i) flows.push_back(make_flow(rng));
  const std::string path = "/tmp/booterscope_store_stream_test.bsf";
  ASSERT_TRUE(write_flow_file(path, flows));
  CollectingSink sink;
  const auto count = read_flow_file_stream(path, sink, 16);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, flows.size());
  EXPECT_EQ(sink.flows(0), flows);
  std::remove(path.c_str());
}

TEST(CollectingSink, GrowsGeometricallyAcrossBatches) {
  // A materialized landscape run delivers thousands of small batches per
  // vantage; growing the list to exactly size + batch on every consume
  // reallocates (and copies every row so far) once per batch.
  util::Rng rng(15);
  FlowBatch batch(8);
  while (!batch.full()) batch.push_back(make_flow(rng));
  constexpr std::size_t kBatches = 1000;
  CollectingSink sink;
  std::size_t capacity = sink.flows(0).capacity();
  std::size_t capacity_changes = 0;
  for (std::size_t i = 0; i < kBatches; ++i) {
    sink.consume(0, batch.view());
    if (sink.flows(0).capacity() != capacity) {
      capacity = sink.flows(0).capacity();
      ++capacity_changes;
    }
  }
  const std::size_t rows = kBatches * batch.size();
  ASSERT_EQ(sink.flows(0).size(), rows);
  EXPECT_LE(capacity_changes, 2 * std::bit_width(rows));
}

}  // namespace
}  // namespace booterscope::flow
