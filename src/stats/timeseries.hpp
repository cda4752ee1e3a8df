// Time-binned counters for the takedown analysis.
//
// The paper sums packets per day over 122 days and compares ±30/±40-day
// windows around the seizure; Fig. 5 does the same at hourly resolution for
// attack counts. BinnedSeries is a dense, zero-filled series over a fixed
// [start, end) range with a fixed bin width.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/time.hpp"

namespace booterscope::stats {

/// Dense time series of doubles over [start, start + bins * width).
class BinnedSeries {
 public:
  BinnedSeries(util::Timestamp start, util::Duration bin_width,
               std::size_t bin_count);

  /// Adds `value` to the bin containing `t`; out-of-range points are dropped
  /// (and counted, see dropped()).
  void add(util::Timestamp t, double value) noexcept;
  /// Sets a bin directly by index.
  void set(std::size_t bin, double value) noexcept { values_[bin] = value; }
  void add_to_bin(std::size_t bin, double value) noexcept { values_[bin] += value; }

  [[nodiscard]] std::size_t bin_count() const noexcept { return values_.size(); }
  [[nodiscard]] double at(std::size_t bin) const noexcept { return values_[bin]; }
  [[nodiscard]] util::Timestamp bin_start(std::size_t bin) const noexcept {
    return start_ + width_ * static_cast<std::int64_t>(bin);
  }
  [[nodiscard]] util::Timestamp start() const noexcept { return start_; }
  [[nodiscard]] util::Timestamp end() const noexcept {
    return bin_start(values_.size());
  }
  [[nodiscard]] util::Duration bin_width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// Per-bin coverage mask for gap-aware analysis: the fraction of the bin
  /// actually observed (1.0 = fully covered). A series without a mask is
  /// fully covered; the mask is allocated on first set_coverage() call.
  /// Vantage outages set coverage below 1 so window builders can exclude
  /// under-covered bins instead of mistaking an outage for a traffic drop.
  void set_coverage(std::size_t bin, double fraction);
  [[nodiscard]] double coverage(std::size_t bin) const noexcept {
    return coverage_.empty() ? 1.0 : coverage_[bin];
  }
  [[nodiscard]] bool has_coverage_mask() const noexcept {
    return !coverage_.empty();
  }

  /// Index of the bin containing `t`, or npos when out of range.
  [[nodiscard]] std::size_t bin_index(util::Timestamp t) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Values of bins whose start lies in [from, to).
  [[nodiscard]] std::vector<double> window(util::Timestamp from,
                                           util::Timestamp to) const;

  /// Collapses to a coarser bin width (must be an integer multiple).
  [[nodiscard]] BinnedSeries rebin(util::Duration coarser) const;

 private:
  util::Timestamp start_;
  util::Duration width_;
  std::vector<double> values_;
  std::vector<double> coverage_;  // empty = fully covered
  std::uint64_t dropped_ = 0;
};

/// The paper's ±N-day window pair around an event: `before` covers
/// [event - N days, event), `after` covers (event, event + N days] — the
/// event day itself is excluded from both sides.
struct EventWindows {
  std::vector<double> before;
  std::vector<double> after;
  /// Bins dropped from each side for insufficient coverage (gap-aware
  /// builds only; zero for series without a coverage mask).
  std::size_t before_excluded = 0;
  std::size_t after_excluded = 0;
};

/// Extracts the paper's before/after daily windows from a daily series.
/// `series` must have a bin width of one day.
[[nodiscard]] EventWindows windows_around(const BinnedSeries& series,
                                          util::Timestamp event, int days);

/// Gap-aware variant: bins with coverage below `min_coverage` are excluded
/// from the windows and counted in before_excluded/after_excluded, so an
/// outage day cannot masquerade as a traffic drop in the Welch comparison.
[[nodiscard]] EventWindows windows_around(const BinnedSeries& series,
                                          util::Timestamp event, int days,
                                          double min_coverage);

}  // namespace booterscope::stats
