#include "fault/fault.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"

namespace booterscope::fault {

namespace {

/// Shard-index layout for the per-(vantage, day/hour) split streams. Keeps
/// every (vantage, day) pair in a distinct stream without collisions for
/// any plausible run size.
constexpr std::uint64_t kDayStride = 1u << 20;  // days per vantage shard band

[[nodiscard]] std::uint64_t day_shard(std::size_t vantage, int day) noexcept {
  return static_cast<std::uint64_t>(vantage) * kDayStride +
         static_cast<std::uint64_t>(day);
}

}  // namespace

FaultProfile FaultProfile::light() noexcept {
  FaultProfile p;
  p.outage_fraction = 0.02;
  p.flap_fraction = 0.01;
  p.drop = 0.02;
  p.duplicate = 0.01;
  p.reorder = 0.01;
  p.truncate = 0.005;
  p.bitflip = 0.002;
  p.template_loss = 0.01;
  return p;
}

FaultProfile FaultProfile::heavy() noexcept {
  FaultProfile p;
  p.outage_fraction = 0.10;
  p.flap_fraction = 0.05;
  p.drop = 0.10;
  p.duplicate = 0.05;
  p.reorder = 0.05;
  p.truncate = 0.03;
  p.bitflip = 0.01;
  p.template_loss = 0.05;
  return p;
}

FaultProfile FaultProfile::outage_only(double fraction) noexcept {
  FaultProfile p;
  p.outage_fraction = std::clamp(fraction, 0.0, 1.0);
  return p;
}

std::optional<FaultProfile> FaultProfile::parse(
    std::string_view name) noexcept {
  if (name == "none") return none();
  if (name == "light") return light();
  if (name == "heavy") return heavy();
  return std::nullopt;
}

bool FaultProfile::enabled() const noexcept {
  return outage_fraction > 0.0 || flap_fraction > 0.0 || drop > 0.0 ||
         duplicate > 0.0 || reorder > 0.0 || truncate > 0.0 || bitflip > 0.0 ||
         template_loss > 0.0;
}

FaultPlan::FaultPlan(std::uint64_t seed, const FaultProfile& profile,
                     util::Timestamp start, int days,
                     std::size_t vantage_count)
    : seed_(seed), profile_(profile), start_(start), days_(std::max(days, 0)) {
  vantages_.resize(vantage_count);
  const std::size_t day_count = static_cast<std::size_t>(days_);
  for (std::size_t v = 0; v < vantage_count; ++v) {
    VantageSchedule& schedule = vantages_[v];
    schedule.day_out.assign(day_count, false);
    schedule.flap_bits.assign(day_count, 0);
    for (int d = 0; d < days_; ++d) {
      const std::uint64_t shard = day_shard(v, d);
      util::Rng outage_rng = util::Rng::split(seed, "fault.outage", shard);
      const std::size_t di = static_cast<std::size_t>(d);
      if (outage_rng.chance(profile.outage_fraction)) {
        schedule.day_out[di] = true;
        continue;  // a dark day has no hour-level structure
      }
      if (profile.flap_fraction <= 0.0) continue;
      util::Rng flap_rng = util::Rng::split(seed, "fault.flap", shard);
      std::uint32_t bits = 0;
      for (int h = 0; h < 24; ++h) {
        if (flap_rng.chance(profile.flap_fraction)) {
          bits |= std::uint32_t{1} << h;
        }
      }
      schedule.flap_bits[di] = bits;
    }
  }
}

bool FaultPlan::day_out(std::size_t vantage, int day) const noexcept {
  if (vantage >= vantages_.size() || day < 0 || day >= days_) return false;
  return vantages_[vantage].day_out[static_cast<std::size_t>(day)];
}

bool FaultPlan::out_at(std::size_t vantage, util::Timestamp t) const noexcept {
  if (vantage >= vantages_.size() || t < start_) return false;
  const std::int64_t day64 = (t - start_).total_days();
  if (day64 >= static_cast<std::int64_t>(days_)) return false;
  const std::size_t day = static_cast<std::size_t>(day64);
  const VantageSchedule& schedule = vantages_[vantage];
  if (schedule.day_out[day]) return true;
  const util::Duration into_day =
      (t - start_) - util::Duration::days(static_cast<std::int64_t>(day));
  const std::int64_t hour = into_day.total_hours();
  if (hour < 0 || hour >= 24) return false;
  return (schedule.flap_bits[day] >> static_cast<unsigned>(hour) & 1u) != 0;
}

double FaultPlan::day_coverage(std::size_t vantage, int day) const noexcept {
  if (vantage >= vantages_.size() || day < 0 || day >= days_) return 1.0;
  const VantageSchedule& schedule = vantages_[vantage];
  const std::size_t di = static_cast<std::size_t>(day);
  if (schedule.day_out[di]) return 0.0;
  const int flapped = std::popcount(schedule.flap_bits[di]);
  return static_cast<double>(24 - flapped) / 24.0;
}

void FaultPlan::apply_coverage(stats::BinnedSeries& daily,
                               std::size_t vantage) const {
  if (vantage >= vantages_.size()) return;
  if (daily.bin_width() != util::Duration::days(1)) return;
  if (daily.start() != start_) return;
  const std::size_t bins =
      std::min(daily.bin_count(), static_cast<std::size_t>(days_));
  for (std::size_t d = 0; d < bins; ++d) {
    const double cover = day_coverage(vantage, static_cast<int>(d));
    if (cover < 1.0) daily.set_coverage(d, cover);
  }
}

std::uint64_t FaultPlan::outage_days(std::size_t vantage) const noexcept {
  if (vantage >= vantages_.size()) return 0;
  const std::vector<bool>& out = vantages_[vantage].day_out;
  return static_cast<std::uint64_t>(std::count(out.begin(), out.end(), true));
}

void ChannelStats::merge(const ChannelStats& other) noexcept {
  offered += other.offered;
  delivered += other.delivered;
  dropped += other.dropped;
  duplicated += other.duplicated;
  reordered += other.reordered;
  truncated += other.truncated;
  bitflipped += other.bitflipped;
}

void PacketChannel::offer(std::vector<std::uint8_t> packet,
                          std::vector<std::vector<std::uint8_t>>& out) {
  util::Rng rng = util::Rng::split(seed_, label_, index_++);
  ++stats_.offered;

  if (rng.chance(profile_.drop)) {
    ++stats_.dropped;
    obs::metrics().counter("booterscope_fault_packets_dropped_total").inc();
    return;
  }

  // Corruption happens in flight, before duplication: both copies of a
  // duplicated packet carry the same damage, like a mangled frame
  // retransmitted by a confused middlebox.
  if (packet.size() > 1 && rng.chance(profile_.truncate)) {
    const std::uint64_t keep =
        1 + rng.bounded(static_cast<std::uint64_t>(packet.size()) - 1);
    packet.resize(static_cast<std::size_t>(keep));
    ++stats_.truncated;
    obs::metrics().counter("booterscope_fault_packets_truncated_total").inc();
  }
  if (!packet.empty() && rng.chance(profile_.bitflip)) {
    const std::uint64_t bit =
        rng.bounded(static_cast<std::uint64_t>(packet.size()) * 8);
    packet[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    ++stats_.bitflipped;
    obs::metrics().counter("booterscope_fault_packets_bitflipped_total").inc();
  }

  const bool duplicate = rng.chance(profile_.duplicate);
  if (duplicate) {
    ++stats_.duplicated;
    obs::metrics().counter("booterscope_fault_packets_duplicated_total").inc();
  }

  // Reorder: hold this packet one slot; it is delivered after the next
  // offered packet (or at flush). A duplicated packet's second copy is
  // emitted immediately — only the first copy is delayed.
  if (!held_.has_value() && rng.chance(profile_.reorder)) {
    ++stats_.reordered;
    obs::metrics().counter("booterscope_fault_packets_reordered_total").inc();
    if (duplicate) {
      out.push_back(packet);
      ++stats_.delivered;
    }
    held_ = std::move(packet);
    return;
  }

  out.push_back(packet);
  ++stats_.delivered;
  if (duplicate) {
    out.push_back(packet);
    ++stats_.delivered;
  }
  if (held_.has_value()) {
    out.push_back(std::move(*held_));
    ++stats_.delivered;
    held_.reset();
  }
}

void PacketChannel::flush(std::vector<std::vector<std::uint8_t>>& out) {
  if (!held_.has_value()) return;
  out.push_back(std::move(*held_));
  ++stats_.delivered;
  held_.reset();
}

void IntegrityTally::note_channel(const ChannelStats& stats) noexcept {
  offered += stats.offered;
  duplicated += stats.duplicated;
  dropped_by_fault += stats.dropped;
}

void IntegrityTally::note_decode(const util::DecodeDamage& damage) noexcept {
  if (damage.clean()) {
    ++decoded_clean;
  } else {
    ++recovered;
    records_skipped += damage.records_skipped;
  }
}

void IntegrityTally::note_decode_failure(util::DecodeError error) noexcept {
  ++failed;
  ++failed_by_error[static_cast<std::size_t>(error)];
}

void IntegrityTally::merge(const IntegrityTally& other) noexcept {
  offered += other.offered;
  duplicated += other.duplicated;
  dropped_by_fault += other.dropped_by_fault;
  decoded_clean += other.decoded_clean;
  recovered += other.recovered;
  failed += other.failed;
  quarantined += other.quarantined;
  shed += other.shed;
  records_skipped += other.records_skipped;
  for (std::size_t i = 0; i < failed_by_error.size(); ++i) {
    failed_by_error[i] += other.failed_by_error[i];
  }
}

void IntegrityTally::add_to_manifest(obs::RunManifest& manifest) const {
  manifest.add_integrity("packets_offered", offered);
  manifest.add_integrity("packets_duplicated_by_fault", duplicated);
  manifest.add_integrity("packets_dropped_by_fault", dropped_by_fault);
  manifest.add_integrity("packets_decoded_clean", decoded_clean);
  manifest.add_integrity("packets_recovered", recovered);
  manifest.add_integrity("packets_failed", failed);
  manifest.add_integrity("packets_quarantined", quarantined);
  manifest.add_integrity("packets_shed", shed);
  manifest.add_integrity("records_skipped", records_skipped);
  for (util::DecodeError error : util::all_decode_errors()) {
    const std::uint64_t count =
        failed_by_error[static_cast<std::size_t>(error)];
    if (count == 0) continue;
    manifest.add_integrity(
        "packets_failed_" + std::string(util::to_string(error)), count);
  }
  manifest.add_integrity_conservation("packet_integrity", lhs(), rhs());
}

}  // namespace booterscope::fault
