// Integration test for the conservation identity promised by the
// observability layer: over a full 14-day landscape replay through a
// sampled exporter cache, every offered packet is accounted for —
//
//   offered == sampled-out + exported (per reason) + still cached
//
// — at every expiry boundary, before drain, and (with cached == 0) after
// drain. The cache is sized small enough that all four export reasons
// (active timeout, inactive timeout, LRU eviction, drain) actually fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "flow/sampler.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "sim/internet.hpp"
#include "sim/landscape.hpp"

namespace booterscope {
namespace {

void expect_identity(const flow::SampledCollector& exporter) {
  const flow::CollectorStats& stats = exporter.collector().stats();
  ASSERT_EQ(exporter.offered_packets(),
            exporter.sampled_out_packets() + stats.total_exported_packets() +
                stats.cached_packets);
}

TEST(Conservation, FourteenDayLandscapeReplay) {
  const sim::Internet internet{sim::InternetConfig{}};
  sim::LandscapeConfig config;
  config.start = util::Timestamp::parse("2018-11-01").value();
  config.days = 14;
  config.takedown = std::nullopt;
  config.attacks_per_day = 60.0;  // keeps the test under a second

  obs::StageTracer tracer;
  exec::ThreadPool pool(1);
  const auto landscape = sim::run_landscape(internet, config, pool, &tracer);
  ASSERT_FALSE(landscape.ixp.store.empty());

  // Replay the IXP export chronologically as packet observations.
  flow::FlowList replayed = landscape.ixp.store.flows();
  std::sort(replayed.begin(), replayed.end(),
            [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
              return a.first < b.first;
            });

  flow::CollectorConfig cache;
  cache.max_entries = 512;  // small enough to force LRU evictions
  flow::SampledCollector exporter(cache, 5, util::Rng(7));
  flow::FlowList exported;
  util::Timestamp next_expire = config.start;
  std::uint64_t offered = 0;
  for (const auto& f : replayed) {
    while (f.first >= next_expire) {
      exporter.expire(next_expire, exported);
      next_expire += util::Duration::hours(6);
      expect_identity(exporter);  // holds at every expiry boundary
    }
    flow::PacketObservation p;
    p.time = f.first;
    p.tuple = f.key();
    p.wire_bytes = static_cast<std::uint32_t>(f.mean_packet_size());
    p.count = f.packets;
    p.src_asn = f.src_asn;
    p.dst_asn = f.dst_asn;
    p.peer_asn = f.peer_asn;
    p.direction = f.direction;
    offered += f.packets;
    exporter.observe(p, exported);
  }

  const flow::CollectorStats& pre = exporter.collector().stats();
  EXPECT_EQ(exporter.offered_packets(), offered);
  EXPECT_EQ(exporter.kept_packets(), pre.observed_packets);
  expect_identity(exporter);
  EXPECT_GT(pre.cached_packets, 0u);  // recent flows still in the cache
  EXPECT_GT(pre.exported_flows_for(flow::ExportReason::kInactiveTimeout), 0u);
  EXPECT_GT(pre.exported_flows_for(flow::ExportReason::kLruEviction), 0u);

  exporter.drain(exported);
  const flow::CollectorStats& post = exporter.collector().stats();
  EXPECT_EQ(post.cached_packets, 0u);
  EXPECT_EQ(exporter.collector().active_flows(), 0u);
  EXPECT_GT(post.exported_flows_for(flow::ExportReason::kDrain), 0u);
  EXPECT_EQ(exporter.offered_packets(),
            exporter.sampled_out_packets() + post.total_exported_packets());

  // Cross-check the stats against the exported records themselves.
  EXPECT_EQ(exported.size(), post.total_exported_flows());
  std::uint64_t packets_in_records = 0;
  for (const auto& f : exported) packets_in_records += f.packets;
  EXPECT_EQ(packets_in_records, post.total_exported_packets());

  // The RunManifest accounting block carries the same identity.
  obs::RunManifest manifest("conservation_test");
  manifest.set_seed(config.seed);
  manifest.add_accounting("offered_packets", exporter.offered_packets());
  manifest.add_accounting("sampled_out_packets",
                          exporter.sampled_out_packets());
  for (std::size_t i = 0; i < flow::kExportReasonCount; ++i) {
    manifest.add_accounting(
        "exported_packets_" +
            std::string(flow::to_string(static_cast<flow::ExportReason>(i))),
        post.exported_packets[i]);
  }
  manifest.add_accounting("cached_packets", post.cached_packets);

  std::uint64_t accounted = 0;
  for (const auto& [key, value] : manifest.accounting()) {
    if (key != "offered_packets") accounted += value;
  }
  EXPECT_EQ(accounted, exporter.offered_packets());

  const std::string json = manifest.to_json(&tracer, nullptr);
  EXPECT_NE(json.find("\"offered_packets\":"), std::string::npos);
  EXPECT_NE(json.find("\"exported_packets_lru_eviction\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"landscape_stream\""), std::string::npos);
}

}  // namespace
}  // namespace booterscope
