#include "core/takedown.hpp"

#include <cstdint>

#include "obs/metrics.hpp"

namespace booterscope::core {

namespace {

[[nodiscard]] WindowMetrics window_metrics(const stats::BinnedSeries& daily,
                                           util::Timestamp event, int days,
                                           double alpha, double min_coverage) {
  WindowMetrics metrics;
  metrics.window_days = days;
  const stats::EventWindows windows =
      stats::windows_around(daily, event, days, min_coverage);
  metrics.welch = stats::welch_t_test(windows.before, windows.after);
  metrics.significant = metrics.welch.significant_reduction(alpha);
  metrics.reduction = metrics.welch.reduction_ratio();
  metrics.effective_before_days = static_cast<int>(windows.before.size());
  metrics.effective_after_days = static_cast<int>(windows.after.size());
  metrics.excluded_days =
      static_cast<int>(windows.before_excluded + windows.after_excluded);
  if (metrics.excluded_days > 0) {
    obs::metrics()
        .counter("booterscope_takedown_excluded_days_total")
        .add(static_cast<std::uint64_t>(metrics.excluded_days));
  }
  return metrics;
}

}  // namespace

TakedownMetrics takedown_metrics(const stats::BinnedSeries& daily,
                                 util::Timestamp event, double alpha,
                                 double min_coverage) {
  obs::metrics().counter("booterscope_takedown_metrics_computed_total").inc();
  return TakedownMetrics{window_metrics(daily, event, 30, alpha, min_coverage),
                         window_metrics(daily, event, 40, alpha, min_coverage)};
}

}  // namespace booterscope::core
