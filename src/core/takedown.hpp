// Takedown effect analysis (§5.2, Fig. 4 and Fig. 5).
//
// Reproduces the paper's two metrics around an intervention:
//   wtN  — one-tailed Welch unequal-variances test on the daily sums of
//          packets, comparing N days before vs. N days after the event
//          (significant at p = 0.05 means the reduction is real);
//   redN — ratio of the daily mean after vs. before (e.g. red30 = 22.5%
//          means traffic fell to 22.5% of its pre-takedown level).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/classify.hpp"
#include "flow/record.hpp"
#include "stats/timeseries.hpp"
#include "stats/welch.hpp"
#include "util/time.hpp"

namespace booterscope::core {

// The series builders are serial scans over a materialized flow list.
// core::StreamAnalysis computes the same series in one pass over flow
// batches and is checked bit-identical against these builders.

/// Daily scaled-packet series of traffic *to* a reflector port (dst port)
/// over [start, start + days).
[[nodiscard]] stats::BinnedSeries daily_packets_to_port(
    const flow::FlowList& flows, std::uint16_t service_port,
    util::Timestamp start, int days);

/// Daily scaled-packet series of reflection traffic *from* a service port
/// to victims (optimistic filter).
[[nodiscard]] stats::BinnedSeries daily_packets_from_reflectors(
    const flow::FlowList& flows, const OptimisticFilterConfig& filter,
    util::Timestamp start, int days);

/// Hourly count of distinct systems under attack per the conservative
/// filter (Fig. 5): destinations of >200-byte NTP traffic from more than
/// `min_amplifiers` sources with a >1 Gbps peak within the hour.
[[nodiscard]] stats::BinnedSeries hourly_attacked_systems(
    const flow::FlowList& flows, const ConservativeFilterConfig& filter,
    util::Timestamp start, int days);

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

/// Same but on a sub-daily series: bins are first summed to days.
[[nodiscard]] TakedownMetrics takedown_metrics_rebinned(
    const stats::BinnedSeries& series, util::Timestamp event,
    double alpha = 0.05, double min_coverage = kDefaultMinCoverage);

}  // namespace booterscope::core
