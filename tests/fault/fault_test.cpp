// booterscope::fault unit contract: profiles, plans, the lossy packet
// channel and the integrity ledger.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/manifest.hpp"

namespace booterscope::fault {
namespace {

using util::Duration;
using util::Timestamp;

const Timestamp kStart = Timestamp::parse("2018-09-30").value();

TEST(FaultProfile, ParsesNamedProfilesOnly) {
  ASSERT_TRUE(FaultProfile::parse("none").has_value());
  EXPECT_FALSE(FaultProfile::parse("none")->enabled());
  ASSERT_TRUE(FaultProfile::parse("light").has_value());
  EXPECT_TRUE(FaultProfile::parse("light")->enabled());
  ASSERT_TRUE(FaultProfile::parse("heavy").has_value());
  EXPECT_DOUBLE_EQ(FaultProfile::parse("heavy")->outage_fraction, 0.10);
  EXPECT_FALSE(FaultProfile::parse("medium").has_value());
  EXPECT_FALSE(FaultProfile::parse("").has_value());
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const FaultProfile profile = FaultProfile::heavy();
  const FaultPlan a(42, profile, kStart, 60, 3);
  const FaultPlan b(42, profile, kStart, 60, 3);
  for (std::size_t v = 0; v < 3; ++v) {
    for (int d = 0; d < 60; ++d) {
      EXPECT_EQ(a.day_out(v, d), b.day_out(v, d)) << v << "," << d;
      EXPECT_EQ(a.day_coverage(v, d), b.day_coverage(v, d)) << v << "," << d;
    }
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const FaultProfile profile = FaultProfile::heavy();
  const FaultPlan a(1, profile, kStart, 122, 3);
  const FaultPlan b(2, profile, kStart, 122, 3);
  bool any_difference = false;
  for (std::size_t v = 0; v < 3 && !any_difference; ++v) {
    for (int d = 0; d < 122; ++d) {
      if (a.day_out(v, d) != b.day_out(v, d)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, OutageFractionRoughlyHolds) {
  const FaultPlan plan(7, FaultProfile::outage_only(0.10), kStart, 122, 16);
  std::uint64_t out = 0;
  for (std::size_t v = 0; v < 16; ++v) out += plan.outage_days(v);
  const double fraction = static_cast<double>(out) / (122.0 * 16.0);
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.16);
}

TEST(FaultPlan, OutAtAndCoverageAgree) {
  const FaultProfile profile = FaultProfile::heavy();
  const FaultPlan plan(11, profile, kStart, 60, 2);
  for (int d = 0; d < 60; ++d) {
    const Timestamp noon = kStart + Duration::days(d) + Duration::hours(12);
    if (plan.day_out(0, d)) {
      EXPECT_TRUE(plan.out_at(0, noon)) << d;
      EXPECT_DOUBLE_EQ(plan.day_coverage(0, d), 0.0) << d;
    } else {
      // Coverage counts exactly the flapped hours.
      int flapped = 0;
      for (int h = 0; h < 24; ++h) {
        if (plan.out_at(0, kStart + Duration::days(d) + Duration::hours(h))) {
          ++flapped;
        }
      }
      EXPECT_DOUBLE_EQ(plan.day_coverage(0, d), (24.0 - flapped) / 24.0) << d;
    }
  }
  // Out-of-range lookups are silent no-faults.
  EXPECT_FALSE(plan.out_at(0, kStart - Duration::hours(1)));
  EXPECT_FALSE(plan.out_at(0, kStart + Duration::days(61)));
  EXPECT_FALSE(plan.out_at(9, kStart));
  EXPECT_DOUBLE_EQ(plan.day_coverage(0, -1), 1.0);
  EXPECT_DOUBLE_EQ(plan.day_coverage(0, 60), 1.0);
}

TEST(FaultPlan, AppliesCoverageToDailySeriesOnly) {
  const FaultPlan plan(5, FaultProfile::outage_only(0.5), kStart, 40, 1);
  stats::BinnedSeries daily(kStart, Duration::days(1), 40);
  plan.apply_coverage(daily, 0);
  ASSERT_TRUE(daily.has_coverage_mask());
  std::size_t zero_days = 0;
  for (std::size_t d = 0; d < 40; ++d) {
    EXPECT_DOUBLE_EQ(daily.coverage(d),
                     plan.day_coverage(0, static_cast<int>(d)));
    if (daily.coverage(d) == 0.0) ++zero_days;
  }
  EXPECT_GT(zero_days, 0u);

  // Hourly series and mismatched starts are left untouched.
  stats::BinnedSeries hourly(kStart, Duration::hours(1), 40 * 24);
  plan.apply_coverage(hourly, 0);
  EXPECT_FALSE(hourly.has_coverage_mask());
  stats::BinnedSeries shifted(kStart + Duration::days(1), Duration::days(1), 40);
  plan.apply_coverage(shifted, 0);
  EXPECT_FALSE(shifted.has_coverage_mask());
}

std::vector<std::uint8_t> numbered_packet(std::uint8_t n) {
  return std::vector<std::uint8_t>(64, n);
}

TEST(PacketChannel, NoneProfileIsPassThrough) {
  PacketChannel channel(1, "chan", FaultProfile::none());
  std::vector<std::vector<std::uint8_t>> out;
  for (std::uint8_t i = 0; i < 20; ++i) channel.offer(numbered_packet(i), out);
  channel.flush(out);
  ASSERT_EQ(out.size(), 20u);
  for (std::uint8_t i = 0; i < 20; ++i) EXPECT_EQ(out[i], numbered_packet(i));
  EXPECT_EQ(channel.stats().offered, 20u);
  EXPECT_EQ(channel.stats().delivered, 20u);
  EXPECT_EQ(channel.stats().dropped, 0u);
}

TEST(PacketChannel, ConservationHolds) {
  PacketChannel channel(99, "lossy", FaultProfile::heavy());
  std::vector<std::vector<std::uint8_t>> out;
  for (int i = 0; i < 2000; ++i) {
    channel.offer(numbered_packet(static_cast<std::uint8_t>(i)), out);
    const ChannelStats& s = channel.stats();
    EXPECT_EQ(s.offered + s.duplicated,
              s.delivered + s.dropped + channel.in_flight());
  }
  channel.flush(out);
  const ChannelStats& s = channel.stats();
  EXPECT_EQ(channel.in_flight(), 0u);
  EXPECT_EQ(s.offered + s.duplicated, s.delivered + s.dropped);
  EXPECT_EQ(out.size(), s.delivered);
  // Heavy profile over 2000 packets exercises every fault at least once
  // (the rarest, bitflip at 1%, misses all 2000 with probability ~2e-9).
  EXPECT_GT(s.dropped, 0u);
  EXPECT_GT(s.duplicated, 0u);
  EXPECT_GT(s.reordered, 0u);
  EXPECT_GT(s.truncated, 0u);
  EXPECT_GT(s.bitflipped, 0u);
}

TEST(PacketChannel, ReplayIsByteIdentical) {
  auto run = [] {
    PacketChannel channel(7, "replay", FaultProfile::heavy());
    std::vector<std::vector<std::uint8_t>> out;
    for (int i = 0; i < 200; ++i) {
      channel.offer(numbered_packet(static_cast<std::uint8_t>(i)), out);
    }
    channel.flush(out);
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(IntegrityTally, BalancesAndMerges) {
  IntegrityTally a;
  ChannelStats channel;
  channel.offered = 100;
  channel.duplicated = 5;
  channel.dropped = 10;
  a.note_channel(channel);
  util::DecodeDamage dirty;
  dirty.note(util::DecodeError::kTruncatedRecord, 2);
  for (int i = 0; i < 80; ++i) a.note_decode(util::DecodeDamage{});
  for (int i = 0; i < 10; ++i) a.note_decode(dirty);
  for (int i = 0; i < 4; ++i) {
    a.note_decode_failure(util::DecodeError::kBadVersion);
  }
  a.quarantined = 1;
  EXPECT_EQ(a.lhs(), 105u);
  EXPECT_EQ(a.rhs(), 80u + 10u + 4u + 10u + 1u);
  EXPECT_TRUE(a.balanced());

  IntegrityTally b = a;
  b.merge(a);
  EXPECT_TRUE(b.balanced());
  EXPECT_EQ(b.offered, 200u);
  EXPECT_EQ(b.failed_by_error[static_cast<std::size_t>(
                util::DecodeError::kBadVersion)],
            8u);

  obs::RunManifest manifest("test");
  a.add_to_manifest(manifest);
  ASSERT_EQ(manifest.integrity_conservation().size(), 1u);
  EXPECT_TRUE(manifest.integrity_conservation()[0].balanced());
  const std::string json = manifest.to_json(nullptr, nullptr);
  EXPECT_NE(json.find("\"packet_integrity\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_failed_bad_version\":4"), std::string::npos);
}

}  // namespace
}  // namespace booterscope::fault
