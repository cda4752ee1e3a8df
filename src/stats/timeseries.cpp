#include "stats/timeseries.hpp"

#include <algorithm>
#include <cassert>

namespace booterscope::stats {

BinnedSeries::BinnedSeries(util::Timestamp start, util::Duration bin_width,
                           std::size_t bin_count)
    : start_(start), width_(bin_width), values_(bin_count, 0.0) {
  assert(bin_width.total_nanos() > 0);
}

std::size_t BinnedSeries::bin_index(util::Timestamp t) const noexcept {
  const std::int64_t offset = (t - start_).total_nanos();
  if (offset < 0) return npos;
  const auto bin = static_cast<std::size_t>(offset / width_.total_nanos());
  return bin < values_.size() ? bin : npos;
}

void BinnedSeries::add(util::Timestamp t, double value) noexcept {
  const std::size_t bin = bin_index(t);
  if (bin == npos) {
    ++dropped_;
    return;
  }
  values_[bin] += value;
}

void BinnedSeries::set_coverage(std::size_t bin, double fraction) {
  if (bin >= values_.size()) return;
  if (coverage_.empty()) coverage_.assign(values_.size(), 1.0);
  coverage_[bin] = fraction < 0.0 ? 0.0 : (fraction > 1.0 ? 1.0 : fraction);
}

std::vector<double> BinnedSeries::window(util::Timestamp from,
                                         util::Timestamp to) const {
  std::vector<double> result;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    const util::Timestamp t = bin_start(i);
    if (t >= from && t < to) result.push_back(values_[i]);
  }
  return result;
}

BinnedSeries BinnedSeries::rebin(util::Duration coarser) const {
  assert(coarser.total_nanos() % width_.total_nanos() == 0);
  const auto factor =
      static_cast<std::size_t>(coarser.total_nanos() / width_.total_nanos());
  const std::size_t new_count = (values_.size() + factor - 1) / factor;
  BinnedSeries result(start_, coarser, new_count);
  for (std::size_t i = 0; i < values_.size(); ++i) {
    result.add_to_bin(i / factor, values_[i]);
  }
  if (!coverage_.empty()) {
    // Coarse coverage is the mean of constituent fine bins (a day with 2 of
    // 24 hours dark is ~92% covered).
    for (std::size_t coarse = 0; coarse < new_count; ++coarse) {
      const std::size_t begin = coarse * factor;
      const std::size_t end = std::min(begin + factor, values_.size());
      double total = 0.0;
      for (std::size_t i = begin; i < end; ++i) total += coverage_[i];
      result.set_coverage(coarse, total / static_cast<double>(end - begin));
    }
  }
  return result;
}

namespace {

/// Values of bins whose start lies in [from, to) and whose coverage clears
/// `min_coverage`; bumps `excluded` for in-range bins that do not.
[[nodiscard]] std::vector<double> covered_window(const BinnedSeries& series,
                                                 util::Timestamp from,
                                                 util::Timestamp to,
                                                 double min_coverage,
                                                 std::size_t& excluded) {
  std::vector<double> result;
  for (std::size_t i = 0; i < series.bin_count(); ++i) {
    const util::Timestamp t = series.bin_start(i);
    if (t < from || t >= to) continue;
    if (series.coverage(i) < min_coverage) {
      ++excluded;
      continue;
    }
    result.push_back(series.at(i));
  }
  return result;
}

}  // namespace

EventWindows windows_around(const BinnedSeries& series, util::Timestamp event,
                            int days) {
  // min_coverage 0.0 keeps every bin: coverage is clamped to [0, 1] and the
  // comparison is strict, so nothing is excluded.
  return windows_around(series, event, days, 0.0);
}

EventWindows windows_around(const BinnedSeries& series, util::Timestamp event,
                            int days, double min_coverage) {
  EventWindows windows;
  const util::Timestamp event_day = event.floor_to(util::Duration::days(1));
  windows.before =
      covered_window(series, event_day - util::Duration::days(days), event_day,
                     min_coverage, windows.before_excluded);
  windows.after = covered_window(series, event_day + util::Duration::days(1),
                                 event_day + util::Duration::days(days + 1),
                                 min_coverage, windows.after_excluded);
  return windows;
}

}  // namespace booterscope::stats
