// Set-overlap measures for the reflector-overlap analysis (Fig. 1(c)).
#pragma once

#include <cstddef>
#include <unordered_set>

namespace booterscope::stats {

/// |a ∩ b| for unordered sets.
template <typename T>
[[nodiscard]] std::size_t intersection_size(const std::unordered_set<T>& a,
                                            const std::unordered_set<T>& b) {
  const auto& smaller = a.size() <= b.size() ? a : b;
  const auto& larger = a.size() <= b.size() ? b : a;
  std::size_t count = 0;
  for (const auto& item : smaller) count += larger.contains(item) ? 1u : 0u;
  return count;
}

/// Jaccard index |a ∩ b| / |a ∪ b|; 0 when both sets are empty.
template <typename T>
[[nodiscard]] double jaccard(const std::unordered_set<T>& a,
                             const std::unordered_set<T>& b) {
  const std::size_t inter = intersection_size(a, b);
  const std::size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace booterscope::stats
