// Reflector (amplifier) populations and the per-booter reflector lists.
//
// §3.2 of the paper derives several facts this module reproduces
// mechanistically:
//   - booters use small lists (hundreds) out of a huge global population
//     (9M NTP amplifiers on shodan.io),
//   - lists are stable over days with moderate churn (~30% over two weeks),
//   - one booter abruptly switched to a completely new list,
//   - lists occasionally overlap across booters (shared public lists),
//   - VIP and non-VIP tiers of the same booter use the *same* list and
//     differ only in packet rate.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/ipv4.hpp"
#include "net/protocol.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace booterscope::sim {

/// Index of a reflector within the global pool of its protocol.
using ReflectorId = std::uint32_t;

/// The global amplifier population for one protocol. Reflector identities
/// are stable indices; IP assignment is done by the Internet factory, which
/// scatters them across stub ASes.
class ReflectorPool {
 public:
  ReflectorPool(net::AmpVector vector, std::uint32_t population) noexcept
      : vector_(vector), population_(population) {}

  [[nodiscard]] net::AmpVector vector() const noexcept { return vector_; }
  [[nodiscard]] std::uint32_t population() const noexcept { return population_; }

  /// Draws `count` distinct reflectors uniformly from the population.
  [[nodiscard]] std::vector<ReflectorId> sample(std::uint32_t count,
                                                util::Rng& rng) const;

  /// Draws `count` distinct reflectors from the "public list" head of the
  /// population — the first `public_list_size` ids. Booters that source
  /// their amplifiers from shared pastebin-style lists draw from here,
  /// which is what creates cross-booter overlap.
  [[nodiscard]] std::vector<ReflectorId> sample_public(
      std::uint32_t count, std::uint32_t public_list_size, util::Rng& rng) const;

 private:
  net::AmpVector vector_;
  std::uint32_t population_;
};

/// How a booter maintains its reflector list over time.
struct ListPolicy {
  /// Fraction of the list replaced per day (0.3 over 14 days ≈ 0.025/day).
  double daily_churn = 0.025;
  /// If set, the entire list is resampled at this instant (the sudden
  /// "new set of reflectors" event the paper observed for booter B).
  util::Timestamp jump_at;
  bool has_jump = false;
  /// Fraction of draws taken from the shared public list head.
  double public_share = 0.2;
  std::uint32_t public_list_size = 2000;
};

/// A booter's live reflector list for one protocol, evolving by policy.
class ReflectorList {
 public:
  ReflectorList(const ReflectorPool& pool, std::uint32_t size, ListPolicy policy,
                util::Rng rng);

  /// Advances internal state to `now`, applying daily churn and the jump.
  /// Returns the churn days applied (the engine's work counter).
  std::uint64_t advance_to(util::Timestamp now);

  /// The reflectors an attack launched now would use. `count` of them are
  /// chosen deterministically from the head of the list (the paper found
  /// same-day attacks reuse the same reflectors rather than random picks).
  [[nodiscard]] std::vector<ReflectorId> select(std::uint32_t count) const;

  [[nodiscard]] const std::vector<ReflectorId>& current() const noexcept {
    return list_;
  }
  [[nodiscard]] std::unordered_set<ReflectorId> as_set() const {
    return {list_.begin(), list_.end()};
  }

 private:
  void churn(double fraction);
  void resample();
  [[nodiscard]] ReflectorId draw_one();

  const ReflectorPool* pool_;
  ListPolicy policy_;
  util::Rng rng_;
  /// Membership of list_ as one bit per pool id. Only ever probed (never
  /// iterated), so draw order is unaffected, and a copy of the list is a
  /// few flat memcpys — the engine hands every day shard its own copy.
  class Membership {
   public:
    explicit Membership(std::uint32_t population)
        : words_((static_cast<std::size_t>(population) + 63) / 64) {}
    [[nodiscard]] bool contains(ReflectorId id) const noexcept {
      return ((words_[id >> 6] >> (id & 63)) & 1u) != 0;
    }
    void insert(ReflectorId id) noexcept {
      words_[id >> 6] |= std::uint64_t{1} << (id & 63);
    }
    void erase(ReflectorId id) noexcept {
      words_[id >> 6] &= ~(std::uint64_t{1} << (id & 63));
    }

   private:
    std::vector<std::uint64_t> words_;
  };

  std::vector<ReflectorId> list_;
  Membership members_;
  util::Timestamp last_update_;
  bool initialized_ = false;
  bool jumped_ = false;
};

}  // namespace booterscope::sim
