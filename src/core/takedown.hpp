// Takedown effect analysis (§5.2, Fig. 4 and Fig. 5).
//
// Reproduces the paper's two metrics around an intervention:
//   wtN  — one-tailed Welch unequal-variances test on the daily sums of
//          packets, comparing N days before vs. N days after the event
//          (significant at p = 0.05 means the reduction is real);
//   redN — ratio of the daily mean after vs. before (e.g. red30 = 22.5%
//          means traffic fell to 22.5% of its pre-takedown level).
#pragma once

#include "stats/timeseries.hpp"
#include "stats/welch.hpp"
#include "util/time.hpp"

namespace booterscope::core {

// The daily series these metrics consume come from core::StreamAnalysis
// (core/stream_analysis.hpp), the one pass that rides the landscape drain.

/// The paper's metric pair for one window size.
struct WindowMetrics {
  int window_days = 0;
  stats::WelchResult welch;
  bool significant = false;  // wtN at p = 0.05
  double reduction = 0.0;    // redN (after/before daily-mean ratio)
  /// Gap-aware accounting: days that actually entered each side of the
  /// Welch comparison, and days excluded for insufficient coverage. For a
  /// fully covered series, effective == window_days and excluded == 0.
  int effective_before_days = 0;
  int effective_after_days = 0;
  int excluded_days = 0;
};

struct TakedownMetrics {
  WindowMetrics wt30;
  WindowMetrics wt40;
};

/// Days with coverage below this fraction are excluded from the wtN/redN
/// windows when the series carries a coverage mask — comparing a 10%-outage
/// day's partial sum against full days would bias the verdict toward a
/// phantom reduction.
inline constexpr double kDefaultMinCoverage = 0.75;

/// Computes wt30/red30 and wt40/red40 around `event` on a daily (or
/// coarser-derived) series. The event day itself is excluded from both
/// windows, matching the paper. Under-covered days (coverage mask below
/// `min_coverage`) are excluded and reported via the effective window
/// sizes; a series without a coverage mask is unaffected.
[[nodiscard]] TakedownMetrics takedown_metrics(
    const stats::BinnedSeries& daily, util::Timestamp event,
    double alpha = 0.05, double min_coverage = kDefaultMinCoverage);

}  // namespace booterscope::core
