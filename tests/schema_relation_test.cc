// Unit tests for Schema, Relation normalization semantics, distribution,
// and the remaining relational-op helpers (CollectStatsAtLeast,
// JoinedSchema, LocalJoinInto corner cases).

#include <unordered_map>

#include <gtest/gtest.h>

#include "parjoin/algorithms/reference.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"
#include "parjoin/relation/schema.h"
#include "parjoin/semiring/semirings.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

TEST(SchemaTest, IndexAndContains) {
  Schema s{10, 20, 30};
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.IndexOf(10), 0);
  EXPECT_EQ(s.IndexOf(30), 2);
  EXPECT_EQ(s.IndexOf(99), -1);
  EXPECT_TRUE(s.Contains(20));
  EXPECT_FALSE(s.Contains(21));
}

TEST(SchemaTest, PositionsOfPreservesRequestOrder) {
  Schema s{10, 20, 30};
  EXPECT_EQ(s.PositionsOf({30, 10}), (std::vector<int>{2, 0}));
}

TEST(SchemaDeathTest, PositionsOfUnknownAttrAborts) {
  Schema s{1};
  EXPECT_DEATH(s.PositionsOf({2}), "not in schema");
}

TEST(SchemaTest, CommonAttrsInLeftOrder) {
  Schema a{1, 2, 3};
  Schema b{3, 5, 2};
  EXPECT_EQ(a.CommonAttrs(b), (std::vector<AttrId>{2, 3}));
  EXPECT_EQ(b.CommonAttrs(a), (std::vector<AttrId>{3, 2}));
}

TEST(SchemaTest, EqualityIsOrderSensitive) {
  EXPECT_EQ(Schema({1, 2}), Schema({1, 2}));
  EXPECT_NE(Schema({1, 2}), Schema({2, 1}));
}

TEST(JoinedSchemaTest, ConcatenatesWithoutDuplicates) {
  EXPECT_EQ(JoinedSchema(Schema{1, 2}, Schema{2, 3}), (Schema{1, 2, 3}));
  EXPECT_EQ(JoinedSchema(Schema{1}, Schema{1}), (Schema{1}));
}

TEST(RelationTest, NormalizeMergesDuplicatesAndDropsZeros) {
  Relation<S> rel(Schema{0, 1});
  rel.Add(Row{1, 2}, 3);
  rel.Add(Row{1, 2}, 4);
  rel.Add(Row{5, 6}, 0);  // Zero() annotation vanishes
  rel.Add(Row{7, 8}, 2);
  rel.Normalize();
  ASSERT_EQ(rel.size(), 2);
  EXPECT_EQ(rel.tuples()[0].row, (Row{1, 2}));
  EXPECT_EQ(rel.tuples()[0].w, 7);
  EXPECT_EQ(rel.tuples()[1].row, (Row{7, 8}));
}

TEST(RelationTest, NormalizeSortsRows) {
  Relation<S> rel(Schema{0});
  rel.Add(Row{9}, 1);
  rel.Add(Row{1}, 1);
  rel.Add(Row{5}, 1);
  rel.Normalize();
  EXPECT_TRUE(std::is_sorted(
      rel.tuples().begin(), rel.tuples().end(),
      [](const auto& a, const auto& b) { return a.row < b.row; }));
}

TEST(RelationTest, MinPlusNormalizeDropsInfinities) {
  Relation<MinPlusSemiring> rel(Schema{0});
  rel.Add(Row{1}, MinPlusSemiring::Zero());  // +inf = no path
  rel.Add(Row{2}, 5);
  rel.Normalize();
  ASSERT_EQ(rel.size(), 1);
  EXPECT_EQ(rel.tuples()[0].row, (Row{2}));
}

TEST(RelationDeathTest, AddChecksArity) {
  Relation<S> rel(Schema{0, 1});
  EXPECT_DEATH(rel.Add(Row{1}, 2), "Check failed");
}

TEST(DistributeTest, SpreadsEvenlyAndRoundTrips) {
  mpc::Cluster cluster(8);
  Relation<S> rel(Schema{0, 1});
  for (int i = 0; i < 83; ++i) rel.Add(Row{i, i * 2}, 1);
  auto dist = Distribute(cluster, rel);
  EXPECT_EQ(dist.TotalSize(), 83);
  EXPECT_LE(dist.data.MaxPartSize(), 11);
  EXPECT_EQ(cluster.stats().total_comm, 0)
      << "initial placement must be free";
  Relation<S> back = dist.ToLocal();
  back.Normalize();
  rel.Normalize();
  EXPECT_TRUE(back == rel);
}

TEST(CollectStatsAtLeastTest, ThresholdOneBroadcastsEveryCount) {
  mpc::Cluster cluster(4);
  Relation<S> rel(Schema{0, 1});
  for (int i = 0; i < 6; ++i) rel.Add(Row{i % 2, i}, 1);
  auto degrees = DegreesByAttr(cluster, Distribute(cluster, rel), 0);
  cluster.ResetStats();
  const auto stats = CollectStatsAtLeast(cluster, degrees, 1);
  EXPECT_EQ(stats, (std::unordered_map<Value, std::int64_t>{{0, 3}, {1, 3}}));
  EXPECT_EQ(cluster.stats().rounds, 1);
  EXPECT_EQ(cluster.stats().max_load, 2);
  EXPECT_EQ(cluster.stats().total_comm, 2 * 4);

  // Nothing reaches the threshold: the (empty) round is still charged.
  cluster.ResetStats();
  EXPECT_TRUE(CollectStatsAtLeast(cluster, degrees, 4).empty());
  EXPECT_EQ(cluster.stats().rounds, 1);
  EXPECT_EQ(cluster.stats().total_comm, 0);
}

TEST(LocalJoinTest, CartesianWhenKeyMatchesEverything) {
  Relation<S> a(Schema{0, 1});
  a.Add(Row{1, 7}, 2);
  a.Add(Row{2, 7}, 3);
  Relation<S> b(Schema{1, 2});
  b.Add(Row{7, 5}, 10);
  b.Add(Row{7, 6}, 100);
  Relation<S> joined = LocalJoin(a, b);
  joined.Normalize();
  EXPECT_EQ(joined.size(), 4);
  EXPECT_EQ(joined.schema(), (Schema{0, 1, 2}));
  // Check one annotation product.
  for (const auto& t : joined.tuples()) {
    if (t.row == (Row{2, 7, 6})) EXPECT_EQ(t.w, 300);
  }
}

TEST(LocalJoinTest, MultiAttributeKey) {
  Relation<S> a(Schema{0, 1, 2});
  a.Add(Row{1, 2, 3}, 5);
  a.Add(Row{1, 9, 3}, 7);
  Relation<S> b(Schema{2, 1, 4});  // shares attrs 1 and 2, reordered
  b.Add(Row{3, 2, 8}, 11);
  Relation<S> joined = LocalJoin(a, b);
  joined.Normalize();
  ASSERT_EQ(joined.size(), 1);
  EXPECT_EQ(joined.tuples()[0].row, (Row{1, 2, 3, 8}));
  EXPECT_EQ(joined.tuples()[0].w, 55);
}

TEST(LocalAggregateTest, EmptyInputGivesEmptyOutput) {
  Relation<S> rel(Schema{0, 1});
  Relation<S> agg = LocalAggregate(rel, {0});
  EXPECT_EQ(agg.size(), 0);
  EXPECT_EQ(agg.schema(), (Schema{0}));
}

TEST(TupleTest, DefaultAnnotationIsOne) {
  Tuple<S> t;
  EXPECT_EQ(t.w, S::One());
}

}  // namespace
}  // namespace parjoin
