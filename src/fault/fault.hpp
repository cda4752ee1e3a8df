// booterscope::fault — seeded, deterministic fault injection (DESIGN.md §10).
//
// The paper's verdicts rest on telemetry that is lossy in the real world:
// vantage points go dark for hours or days, export packets are dropped,
// duplicated, reordered, truncated or bit-flipped in flight, and templates
// arrive late or never. This subsystem makes all of that injectable under
// a single fault seed, with the same determinism contract as the
// simulator: every decision is a pure function of
// (fault_seed, label, index) via util::Rng::split, so a faulted run is
// replayable byte-for-byte at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/timeseries.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::obs {
class RunManifest;
}  // namespace booterscope::obs

namespace booterscope::fault {

/// Per-boundary fault rates. All probabilities in [0, 1]; a default
/// constructed profile injects nothing.
struct FaultProfile {
  /// P(a vantage is dark for a whole day).
  double outage_fraction = 0.0;
  /// P(a given hour flaps — is lost — on an otherwise-up day).
  double flap_fraction = 0.0;
  /// Export packet channel faults, applied per packet in offer order.
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  double bitflip = 0.0;
  /// P(a template announcement is withheld from an export packet), for
  /// exporters that model template resend (v9/IPFIX).
  double template_loss = 0.0;

  [[nodiscard]] static FaultProfile none() noexcept { return {}; }
  /// Mild degradation: ~2% losses everywhere.
  [[nodiscard]] static FaultProfile light() noexcept;
  /// The acceptance scenario: 10% day outages plus heavy channel faults.
  [[nodiscard]] static FaultProfile heavy() noexcept;
  /// Outage-only profile for ablations sweeping the outage fraction.
  [[nodiscard]] static FaultProfile outage_only(double fraction) noexcept;
  /// Parses "none" | "light" | "heavy"; nullopt otherwise.
  [[nodiscard]] static std::optional<FaultProfile> parse(
      std::string_view name) noexcept;

  [[nodiscard]] bool enabled() const noexcept;
};

/// Precomputed, immutable fault schedule for one run: which vantage is dark
/// when. Built once from the fault seed; lookups are pure reads, safe from
/// any thread.
class FaultPlan {
 public:
  FaultPlan(std::uint64_t seed, const FaultProfile& profile,
            util::Timestamp start, int days, std::size_t vantage_count);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] util::Timestamp start() const noexcept { return start_; }
  [[nodiscard]] int days() const noexcept { return days_; }
  [[nodiscard]] std::size_t vantage_count() const noexcept {
    return vantages_.size();
  }

  /// Whole-day outage for (vantage, day index); false out of range.
  [[nodiscard]] bool day_out(std::size_t vantage, int day) const noexcept;
  /// True when the vantage is dark at `t` (outage day, or flapped hour).
  [[nodiscard]] bool out_at(std::size_t vantage, util::Timestamp t) const noexcept;
  /// Observed fraction of (vantage, day): 0 on an outage day, otherwise
  /// (24 - flapped hours) / 24.
  [[nodiscard]] double day_coverage(std::size_t vantage, int day) const noexcept;

  /// Stamps day_coverage() onto a daily series that starts at the plan's
  /// start (gap-aware analysis input). Series with other bin widths or
  /// starts are left untouched.
  void apply_coverage(stats::BinnedSeries& daily, std::size_t vantage) const;

  /// Total dark days scheduled for a vantage (accounting).
  [[nodiscard]] std::uint64_t outage_days(std::size_t vantage) const noexcept;

 private:
  struct VantageSchedule {
    std::vector<bool> day_out;
    std::vector<std::uint32_t> flap_bits;  // bit h set = hour h lost
  };

  std::uint64_t seed_;
  FaultProfile profile_;
  util::Timestamp start_;
  int days_;
  std::vector<VantageSchedule> vantages_;
};

/// What one PacketChannel did, for the integrity identity
///   offered + duplicated == delivered + dropped + in_flight.
struct ChannelStats {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t truncated = 0;
  std::uint64_t bitflipped = 0;

  void merge(const ChannelStats& other) noexcept;
};

/// A lossy export path: every offered packet is independently dropped,
/// duplicated, held back one slot (reorder), truncated or bit-flipped.
/// Decisions are a pure function of (seed, label, offer index), so two
/// channels constructed with the same identity replay identically
/// regardless of thread schedule. Not thread-safe; use one channel per
/// chain (offer order must be deterministic, which per-chain use gives).
class PacketChannel {
 public:
  PacketChannel(std::uint64_t seed, std::string label,
                const FaultProfile& profile) noexcept
      : seed_(seed), label_(std::move(label)), profile_(profile) {}

  /// Pushes `packet` through the channel; surviving packets (possibly
  /// mutated, possibly two copies, possibly a previously held packet) are
  /// appended to `out`.
  void offer(std::vector<std::uint8_t> packet,
             std::vector<std::vector<std::uint8_t>>& out);
  /// Delivers a held (reordered) packet, if any.
  void flush(std::vector<std::vector<std::uint8_t>>& out);

  [[nodiscard]] const ChannelStats& stats() const noexcept { return stats_; }
  /// 1 while a reordered packet is held, else 0.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return held_.has_value() ? 1 : 0;
  }

 private:
  std::uint64_t seed_;
  std::string label_;
  FaultProfile profile_;
  std::uint64_t index_ = 0;
  std::optional<std::vector<std::uint8_t>> held_;
  ChannelStats stats_;
};

/// Run-level degraded-operation ledger, rolled into the manifest's
/// integrity block. The conservation identity is
///   offered + duplicated ==
///       decoded clean + recovered + failed + dropped by fault
///       + quarantined + shed
/// where "recovered" are packets decoded with non-clean DecodeDamage,
/// "failed" are fatal decode results bucketed by DecodeError, and "shed"
/// are packets deliberately discarded under overload (bounded ingest
/// queues full — DESIGN.md §15). Shedding is load management, not loss:
/// it is always counted here, never silent.
struct IntegrityTally {
  std::uint64_t offered = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t dropped_by_fault = 0;
  std::uint64_t decoded_clean = 0;
  std::uint64_t recovered = 0;
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t shed = 0;
  std::uint64_t records_skipped = 0;
  std::array<std::uint64_t, util::kDecodeErrorCount> failed_by_error{};

  void note_channel(const ChannelStats& stats) noexcept;
  void note_decode(const util::DecodeDamage& damage) noexcept;
  void note_decode_failure(util::DecodeError error) noexcept;

  [[nodiscard]] std::uint64_t lhs() const noexcept {
    return offered + duplicated;
  }
  [[nodiscard]] std::uint64_t rhs() const noexcept {
    return decoded_clean + recovered + failed + dropped_by_fault +
           quarantined + shed;
  }
  [[nodiscard]] bool balanced() const noexcept { return lhs() == rhs(); }

  void merge(const IntegrityTally& other) noexcept;
  /// Writes counts and the conservation identity into the manifest's
  /// integrity block.
  void add_to_manifest(obs::RunManifest& manifest) const;
};

}  // namespace booterscope::fault
