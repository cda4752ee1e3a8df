#include "stats/setops.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

namespace booterscope::stats {
namespace {

using Set = std::unordered_set<int>;

TEST(SetOps, IntersectionSize) {
  EXPECT_EQ(intersection_size(Set{1, 2, 3}, Set{2, 3, 4}), 2u);
  EXPECT_EQ(intersection_size(Set{}, Set{1}), 0u);
  EXPECT_EQ(intersection_size(Set{1}, Set{1}), 1u);
  // Asymmetric sizes exercise the small-set iteration path both ways.
  EXPECT_EQ(intersection_size(Set{1, 2, 3, 4, 5, 6, 7}, Set{5}), 1u);
  EXPECT_EQ(intersection_size(Set{5}, Set{1, 2, 3, 4, 5, 6, 7}), 1u);
}

TEST(SetOps, Jaccard) {
  EXPECT_DOUBLE_EQ(jaccard(Set{1, 2}, Set{1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(jaccard(Set{1, 2}, Set{3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(jaccard(Set{1, 2, 3}, Set{2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(jaccard(Set{}, Set{}), 0.0);
}

}  // namespace
}  // namespace booterscope::stats
