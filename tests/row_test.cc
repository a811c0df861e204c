// Unit tests for Row: inline/heap storage, value semantics, ordering,
// hashing, and projection.

#include "parjoin/common/row.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace parjoin {
namespace {

TEST(RowTest, DefaultIsEmpty) {
  Row r;
  EXPECT_EQ(r.size(), 0);
  EXPECT_TRUE(r.empty());
}

TEST(RowTest, InitializerListConstruction) {
  Row r{1, 2, 3};
  ASSERT_EQ(r.size(), 3);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 2);
  EXPECT_EQ(r[2], 3);
}

TEST(RowTest, PushBackWithinInlineCapacity) {
  Row r;
  for (int i = 0; i < Row::kInlineCapacity; ++i) {
    r.PushBack(i * 10);
  }
  ASSERT_EQ(r.size(), Row::kInlineCapacity);
  for (int i = 0; i < Row::kInlineCapacity; ++i) {
    EXPECT_EQ(r[i], i * 10);
  }
}

TEST(RowTest, GrowsBeyondInlineCapacity) {
  Row r;
  constexpr int kCount = Row::kInlineCapacity * 5;
  for (int i = 0; i < kCount; ++i) r.PushBack(i);
  ASSERT_EQ(r.size(), kCount);
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(r[i], i);
}

TEST(RowTest, CopyConstructInline) {
  Row a{7, 8};
  Row b(a);
  EXPECT_EQ(a, b);
  b[0] = 99;
  EXPECT_EQ(a[0], 7) << "copy must not alias";
}

TEST(RowTest, CopyConstructHeap) {
  Row a;
  for (int i = 0; i < 20; ++i) a.PushBack(i);
  Row b(a);
  EXPECT_EQ(a, b);
  b[19] = -1;
  EXPECT_EQ(a[19], 19);
}

TEST(RowTest, CopyAssignReplacesContents) {
  Row a{1, 2, 3};
  Row b{9};
  b = a;
  EXPECT_EQ(b, a);
  Row wide;
  for (int i = 0; i < 15; ++i) wide.PushBack(i);
  b = wide;
  EXPECT_EQ(b, wide);
  // And heap -> inline assignment.
  wide = a;
  EXPECT_EQ(wide, a);
}

TEST(RowTest, MoveConstructHeapStealsBuffer) {
  Row a;
  for (int i = 0; i < 20; ++i) a.PushBack(i);
  const Value* buffer = a.data();
  Row b(std::move(a));
  EXPECT_EQ(b.data(), buffer);
  EXPECT_EQ(b.size(), 20);
  EXPECT_EQ(a.size(), 0);  // NOLINT(bugprone-use-after-move): spec'd empty
}

TEST(RowTest, MoveAssign) {
  Row a{1, 2};
  Row b;
  for (int i = 0; i < 12; ++i) b.PushBack(i);
  a = std::move(b);
  ASSERT_EQ(a.size(), 12);
  EXPECT_EQ(a[11], 11);
}

TEST(RowTest, SelfAssignmentIsSafe) {
  Row a{1, 2, 3};
  const Row& alias = a;
  a = alias;
  EXPECT_EQ(a, (Row{1, 2, 3}));
}

TEST(RowTest, EqualityAndOrdering) {
  EXPECT_EQ((Row{1, 2}), (Row{1, 2}));
  EXPECT_NE((Row{1, 2}), (Row{1, 3}));
  EXPECT_NE((Row{1, 2}), (Row{1, 2, 3}));
  EXPECT_LT((Row{1, 2}), (Row{1, 3}));
  EXPECT_LT((Row{1, 2}), (Row{1, 2, 0}));  // prefix < extension
  EXPECT_LT((Row{1, 9}), (Row{2, 0}));
}

TEST(RowTest, OrderingIsStrictWeak) {
  std::vector<Row> rows = {{3, 1}, {1, 2, 3}, {1}, {2, 2}, {1, 2}};
  std::sort(rows.begin(), rows.end());
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  std::set<Row> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
}

TEST(RowTest, SelectProjects) {
  Row r{10, 20, 30, 40};
  std::vector<int> positions = {3, 1};
  EXPECT_EQ(r.Select(positions), (Row{40, 20}));
}

TEST(RowTest, HashEqualRowsAgree) {
  Row a{5, 6, 7};
  Row b{5, 6, 7};
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.Hash(123), b.Hash(123));
}

TEST(RowTest, HashDependsOnSeedAndContent) {
  Row a{5, 6, 7};
  Row b{5, 6, 8};
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(1), a.Hash(2));
}

}  // namespace
}  // namespace parjoin
