#include "sim/reflector.hpp"

#include <algorithm>
#include <cassert>

namespace booterscope::sim {

namespace {

/// Floyd's algorithm: `count` distinct uniform draws from [0, population).
std::vector<ReflectorId> distinct_sample(std::uint32_t count,
                                         std::uint32_t population,
                                         util::Rng& rng) {
  assert(count <= population);
  std::unordered_set<ReflectorId> seen;
  std::vector<ReflectorId> result;
  result.reserve(count);
  for (std::uint32_t j = population - count; j < population; ++j) {
    const auto candidate = static_cast<ReflectorId>(rng.bounded(j + 1));
    const ReflectorId pick = seen.contains(candidate) ? j : candidate;
    seen.insert(pick);
    result.push_back(pick);
  }
  return result;
}

}  // namespace

std::vector<ReflectorId> ReflectorPool::sample(std::uint32_t count,
                                               util::Rng& rng) const {
  return distinct_sample(std::min(count, population_), population_, rng);
}

std::vector<ReflectorId> ReflectorPool::sample_public(
    std::uint32_t count, std::uint32_t public_list_size, util::Rng& rng) const {
  const std::uint32_t head = std::min(public_list_size, population_);
  return distinct_sample(std::min(count, head), head, rng);
}

ReflectorList::ReflectorList(const ReflectorPool& pool, std::uint32_t size,
                             ListPolicy policy, util::Rng rng)
    : pool_(&pool), policy_(policy), rng_(rng), members_(pool.population()) {
  list_.reserve(size);
  for (std::uint32_t i = 0; i < size && i < pool.population(); ++i) {
    ReflectorId id = draw_one();
    while (members_.contains(id)) id = draw_one();
    members_.insert(id);
    list_.push_back(id);
  }
}

ReflectorId ReflectorList::draw_one() {
  if (rng_.chance(policy_.public_share)) {
    const std::uint32_t head =
        std::min(policy_.public_list_size, pool_->population());
    return static_cast<ReflectorId>(rng_.bounded(head));
  }
  return static_cast<ReflectorId>(rng_.bounded(pool_->population()));
}

void ReflectorList::churn(double fraction) {
  const auto replacements = static_cast<std::size_t>(
      fraction * static_cast<double>(list_.size()) + rng_.uniform());
  for (std::size_t i = 0; i < replacements && !list_.empty(); ++i) {
    const std::size_t victim = rng_.bounded(list_.size());
    ReflectorId fresh = draw_one();
    int guard = 0;
    while (members_.contains(fresh) && guard++ < 64) fresh = draw_one();
    if (members_.contains(fresh)) continue;
    members_.erase(list_[victim]);
    members_.insert(fresh);
    list_[victim] = fresh;
  }
}

void ReflectorList::resample() {
  const std::size_t size = list_.size();
  for (const ReflectorId id : list_) members_.erase(id);
  list_.clear();
  for (std::size_t i = 0; i < size; ++i) {
    ReflectorId id = draw_one();
    int guard = 0;
    while (members_.contains(id) && guard++ < 64) id = draw_one();
    if (members_.contains(id)) continue;
    members_.insert(id);
    list_.push_back(id);
  }
}

std::uint64_t ReflectorList::advance_to(util::Timestamp now) {
  // The full-list switch applies regardless of whether this list has been
  // advanced before (a brand-new observer still sees the post-switch list).
  if (policy_.has_jump && !jumped_ && now >= policy_.jump_at) {
    resample();
    jumped_ = true;
    last_update_ = now;
    initialized_ = true;
    return 0;
  }
  if (!initialized_) {
    last_update_ = now;
    initialized_ = true;
    return 0;
  }
  const std::int64_t elapsed_days = (now - last_update_).total_days();
  if (elapsed_days <= 0) return 0;
  for (std::int64_t day = 0; day < elapsed_days; ++day) churn(policy_.daily_churn);
  last_update_ += util::Duration::days(elapsed_days);
  return static_cast<std::uint64_t>(elapsed_days);
}

std::vector<ReflectorId> ReflectorList::select(std::uint32_t count) const {
  const std::size_t take = std::min<std::size_t>(count, list_.size());
  return {list_.begin(),
          list_.begin() + static_cast<std::ptrdiff_t>(take)};
}

}  // namespace booterscope::sim
