// Determinism of the fault schedule (DESIGN.md §10): every fault decision
// is a pure function of (seed, label, index), never of thread timing or
// replay order. The pool-size contract of a faulted landscape run is
// pinned by StreamEquivalence.OutageFilteringMatchesTheStoreBoundaryFilter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "util/rng.hpp"

namespace booterscope {
namespace {

using util::Timestamp;

const Timestamp kStart = Timestamp::parse("2018-09-30").value();

TEST(FaultDeterminism, ChannelShardingMatchesSequentialReplay) {
  // A sharded consumer replaying packets i..j through split-derived
  // channels must see the same bytes as one sequential channel per shard:
  // channel decisions depend only on (seed, label, index).
  const fault::FaultProfile profile = fault::FaultProfile::heavy();
  std::vector<std::vector<std::uint8_t>> packets;
  util::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    packets.emplace_back(48, static_cast<std::uint8_t>(rng.bounded(256)));
  }

  auto shard_output = [&](std::size_t shard, std::size_t shards) {
    fault::PacketChannel channel(9, "shard" + std::to_string(shard), profile);
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t i = shard; i < packets.size(); i += shards) {
      channel.offer(packets[i], out);
    }
    channel.flush(out);
    return out;
  };
  // Same shard of the same run, replayed later: identical.
  EXPECT_EQ(shard_output(0, 4), shard_output(0, 4));
  EXPECT_EQ(shard_output(3, 4), shard_output(3, 4));
  // Distinct shard labels draw distinct fault streams.
  EXPECT_NE(shard_output(0, 4), shard_output(1, 4));
}

TEST(FaultDeterminism, OutagePlanIsMonotoneInFraction) {
  // Sweeps reuse one seed across fractions; the per-day uniform draw makes
  // outage sets nested (a day dark at 5% stays dark at 30%), which keeps
  // ablation tables monotone instead of resampling a new world per step.
  const fault::FaultPlan low(3, fault::FaultProfile::outage_only(0.05),
                             kStart, 122, 3);
  const fault::FaultPlan high(3, fault::FaultProfile::outage_only(0.30),
                              kStart, 122, 3);
  for (std::size_t v = 0; v < 3; ++v) {
    for (int d = 0; d < 122; ++d) {
      if (low.day_out(v, d)) {
        EXPECT_TRUE(high.day_out(v, d)) << v << "," << d;
      }
    }
  }
  EXPECT_GT(high.outage_days(0) + high.outage_days(1) + high.outage_days(2),
            low.outage_days(0) + low.outage_days(1) + low.outage_days(2));
}

}  // namespace
}  // namespace booterscope
