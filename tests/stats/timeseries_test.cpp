#include "stats/timeseries.hpp"

#include <gtest/gtest.h>

namespace booterscope::stats {
namespace {

using util::Duration;
using util::Timestamp;

Timestamp day(const char* text) { return Timestamp::parse(text).value(); }

TEST(BinnedSeries, AddsIntoCorrectBins) {
  BinnedSeries series(day("2018-10-01"), Duration::days(1), 10);
  series.add(day("2018-10-01"), 5.0);
  series.add(day("2018-10-01") + Duration::hours(23), 2.0);
  series.add(day("2018-10-03"), 1.0);
  EXPECT_DOUBLE_EQ(series.at(0), 7.0);
  EXPECT_DOUBLE_EQ(series.at(1), 0.0);
  EXPECT_DOUBLE_EQ(series.at(2), 1.0);
  EXPECT_EQ(series.dropped(), 0u);
}

TEST(BinnedSeries, DropsOutOfRange) {
  BinnedSeries series(day("2018-10-01"), Duration::days(1), 2);
  series.add(day("2018-09-30"), 1.0);
  series.add(day("2018-10-03"), 1.0);
  EXPECT_EQ(series.dropped(), 2u);
  EXPECT_DOUBLE_EQ(series.at(0) + series.at(1), 0.0);
}

TEST(BinnedSeries, BinIndexAndStarts) {
  BinnedSeries series(day("2018-10-01"), Duration::hours(1), 48);
  EXPECT_EQ(series.bin_index(day("2018-10-01")), 0u);
  EXPECT_EQ(series.bin_index(day("2018-10-01") + Duration::minutes(59)), 0u);
  EXPECT_EQ(series.bin_index(day("2018-10-02")), 24u);
  EXPECT_EQ(series.bin_index(day("2018-10-03")), BinnedSeries::npos);
  EXPECT_EQ(series.bin_start(24), day("2018-10-02"));
  EXPECT_EQ(series.end(), day("2018-10-03"));
}

TEST(BinnedSeries, WindowSelectsHalfOpenRange) {
  BinnedSeries series(day("2018-10-01"), Duration::days(1), 5);
  for (std::size_t i = 0; i < 5; ++i) series.set(i, static_cast<double>(i));
  const auto window = series.window(day("2018-10-02"), day("2018-10-04"));
  ASSERT_EQ(window.size(), 2u);
  EXPECT_DOUBLE_EQ(window[0], 1.0);
  EXPECT_DOUBLE_EQ(window[1], 2.0);
}

TEST(BinnedSeries, RebinSumsGroups) {
  BinnedSeries hourly(day("2018-10-01"), Duration::hours(1), 48);
  for (std::size_t i = 0; i < 48; ++i) hourly.set(i, 1.0);
  const BinnedSeries daily = hourly.rebin(Duration::days(1));
  ASSERT_EQ(daily.bin_count(), 2u);
  EXPECT_DOUBLE_EQ(daily.at(0), 24.0);
  EXPECT_DOUBLE_EQ(daily.at(1), 24.0);
  EXPECT_EQ(daily.bin_width().total_hours(), 24);
}

TEST(EventWindows, ExcludesEventDay) {
  BinnedSeries series(day("2018-12-01"), Duration::days(1), 40);
  for (std::size_t i = 0; i < 40; ++i) {
    series.set(i, static_cast<double>(i));
  }
  // Event mid-day on Dec 19 (bin 18).
  const auto windows = windows_around(
      series, day("2018-12-19") + Duration::hours(14), 5);
  ASSERT_EQ(windows.before.size(), 5u);
  ASSERT_EQ(windows.after.size(), 5u);
  // Before: Dec 14..18 (bins 13..17); after: Dec 20..24 (bins 19..23).
  EXPECT_DOUBLE_EQ(windows.before.front(), 13.0);
  EXPECT_DOUBLE_EQ(windows.before.back(), 17.0);
  EXPECT_DOUBLE_EQ(windows.after.front(), 19.0);
  EXPECT_DOUBLE_EQ(windows.after.back(), 23.0);
}

TEST(EventWindows, TruncatedAtSeriesEdges) {
  BinnedSeries series(day("2018-12-10"), Duration::days(1), 15);
  const auto windows = windows_around(series, day("2018-12-19"), 30);
  EXPECT_EQ(windows.before.size(), 9u);   // Dec 10..18
  EXPECT_EQ(windows.after.size(), 5u);    // Dec 20..24
}

TEST(BinnedSeries, CoverageDefaultsToFullWithoutMask) {
  BinnedSeries series(day("2018-10-01"), Duration::days(1), 3);
  EXPECT_FALSE(series.has_coverage_mask());
  EXPECT_DOUBLE_EQ(series.coverage(0), 1.0);
  EXPECT_DOUBLE_EQ(series.coverage(2), 1.0);
  series.set_coverage(1, 1.5);   // clamped
  series.set_coverage(2, -0.2);  // clamped
  EXPECT_TRUE(series.has_coverage_mask());
  EXPECT_DOUBLE_EQ(series.coverage(0), 1.0);
  EXPECT_DOUBLE_EQ(series.coverage(1), 1.0);
  EXPECT_DOUBLE_EQ(series.coverage(2), 0.0);
}

TEST(BinnedSeries, RebinAveragesCoverage) {
  BinnedSeries hourly(day("2018-10-01"), Duration::hours(1), 48);
  for (std::size_t i = 0; i < 48; ++i) hourly.set(i, 1.0);
  // Day one loses 6 of 24 hours; day two is fully covered.
  for (std::size_t i = 0; i < 6; ++i) hourly.set_coverage(i, 0.0);
  const BinnedSeries daily = hourly.rebin(Duration::days(1));
  ASSERT_TRUE(daily.has_coverage_mask());
  EXPECT_DOUBLE_EQ(daily.coverage(0), 0.75);
  EXPECT_DOUBLE_EQ(daily.coverage(1), 1.0);
}

TEST(EventWindows, GapAwareExcludesUnderCoveredDays) {
  BinnedSeries series(day("2018-12-01"), Duration::days(1), 40);
  for (std::size_t i = 0; i < 40; ++i) {
    series.set(i, static_cast<double>(i));
  }
  // Two outage days before the event (bins 14, 16), one after (bin 20).
  series.set_coverage(14, 0.0);
  series.set_coverage(16, 0.5);
  series.set_coverage(20, 0.0);
  const Timestamp event = day("2018-12-19") + Duration::hours(14);  // bin 18
  const auto naive = windows_around(series, event, 5);
  EXPECT_EQ(naive.before.size(), 5u);
  EXPECT_EQ(naive.after.size(), 5u);
  EXPECT_EQ(naive.before_excluded, 0);
  EXPECT_EQ(naive.after_excluded, 0);

  const auto aware = windows_around(series, event, 5, 0.75);
  ASSERT_EQ(aware.before.size(), 3u);  // bins 13, 15, 17
  ASSERT_EQ(aware.after.size(), 4u);   // bins 19, 21, 22, 23
  EXPECT_EQ(aware.before_excluded, 2);
  EXPECT_EQ(aware.after_excluded, 1);
  EXPECT_DOUBLE_EQ(aware.before.front(), 13.0);
  EXPECT_DOUBLE_EQ(aware.before.back(), 17.0);
  EXPECT_DOUBLE_EQ(aware.after.front(), 19.0);
  EXPECT_DOUBLE_EQ(aware.after.back(), 23.0);
}

}  // namespace
}  // namespace booterscope::stats
