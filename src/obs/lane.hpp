// Lanes: the per-thread tracks every observer records into.
//
// Lane 0 is the driver (any thread the pool has not tagged), lane w+1 is
// pool worker w; exec::ThreadPool tags its workers on startup. A LaneTable
// hands each lane its own slot, created lock-free on the lane's first use,
// so a recorder never has to be sized to a pool up front and each slot has
// exactly one writer thread at a time. StageTracer keeps its span log in
// one, the hardware-counter Profiler its per-thread counter groups.
//
// Lane numbers are attribution only: never derive behavior from them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>

namespace booterscope::obs {

/// Tags the calling thread's lane (exec::ThreadPool does this for its
/// workers) and reads it back; untagged threads are lane 0.
void set_current_lane(int lane) noexcept;
[[nodiscard]] int current_lane() noexcept;

template <typename Slot>
class LaneTable {
 public:
  /// Lanes beyond this (a pool of more than 1023 workers) are refused:
  /// slot() returns nullptr and the caller counts the event as dropped.
  static constexpr std::size_t kMaxLanes = 1024;

  LaneTable() = default;
  LaneTable(const LaneTable&) = delete;
  LaneTable& operator=(const LaneTable&) = delete;
  ~LaneTable() {
    for (std::atomic<Slot*>& slot : slots_) {
      std::unique_ptr<Slot>(slot.load(std::memory_order_acquire)).reset();
    }
  }

  /// The lane's slot, created on first use; nullptr when out of range.
  [[nodiscard]] Slot* slot(std::size_t lane) {
    if (lane >= kMaxLanes) return nullptr;
    Slot* existing = slots_[lane].load(std::memory_order_acquire);
    if (existing != nullptr) return existing;
    auto fresh = std::make_unique<Slot>();
    if (slots_[lane].compare_exchange_strong(existing, fresh.get(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return fresh.release();
    }
    return existing;  // another thread created it first
  }

  /// The lane's slot if it was ever created, else nullptr.
  [[nodiscard]] const Slot* find(std::size_t lane) const noexcept {
    return lane < kMaxLanes ? slots_[lane].load(std::memory_order_acquire)
                            : nullptr;
  }

  /// One past the highest lane created so far.
  [[nodiscard]] std::size_t size() const noexcept {
    for (std::size_t lane = kMaxLanes; lane > 0; --lane) {
      if (find(lane - 1) != nullptr) return lane;
    }
    return 0;
  }

 private:
  std::array<std::atomic<Slot*>, kMaxLanes> slots_{};
};

}  // namespace booterscope::obs
