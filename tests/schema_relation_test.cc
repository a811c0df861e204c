// Unit tests for Schema, Relation normalization semantics, distribution,
// and the remaining relational-op helpers (CollectStatsAtLeast,
// JoinedSchema, LocalJoinInto corner cases).

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/algorithms/reference.h"
#include "parjoin/common/random.h"
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

// The reference Normalize: a std::map<Row, W> that ⊕-folds duplicate
// rows in input order, then drops Zero() sums.
template <SemiringC Sr>
std::vector<Tuple<Sr>> NormalizedByMap(const std::vector<Tuple<Sr>>& tuples) {
  std::map<Row, typename Sr::ValueType> agg;
  for (const auto& t : tuples) {
    auto [it, inserted] = agg.emplace(t.row, t.w);
    if (!inserted) it->second = Sr::Plus(it->second, t.w);
  }
  std::vector<Tuple<Sr>> out;
  for (const auto& [row, w] : agg) {
    if (!(w == Sr::Zero())) out.push_back(Tuple<Sr>{row, w});
  }
  return out;
}

template <SemiringC Sr>
void ExpectNormalizeMatchesMap(const Schema& schema,
                               std::vector<Tuple<Sr>> tuples) {
  const std::vector<Tuple<Sr>> expected = NormalizedByMap<Sr>(tuples);
  Relation<Sr> rel(schema, std::move(tuples));
  rel.Normalize();
  EXPECT_EQ(rel.tuples(), expected);
}

Schema SchemaOfArity(int arity) {
  std::vector<AttrId> attrs(static_cast<size_t>(arity));
  std::iota(attrs.begin(), attrs.end(), 0);
  return Schema(std::move(attrs));
}

// `n` tuples over `distinct` rows of `width` values, rows drawn at random
// (so duplicates land in shuffled order), weights drawn by `weight`.
template <SemiringC Sr, typename WeightFn>
std::vector<Tuple<Sr>> RandomTuples(Rng& rng, int n, int distinct, int width,
                                    WeightFn weight) {
  std::vector<Tuple<Sr>> tuples;
  for (int i = 0; i < n; ++i) {
    const std::int64_t r = rng.Uniform(0, distinct - 1);
    Row row;
    for (int j = 1; j < width; ++j) row.PushBack((r * (j + 3)) % 11);
    row.PushBack(r);  // keeps the `distinct` rows distinct
    tuples.push_back(Tuple<Sr>{std::move(row), weight(rng)});
  }
  return tuples;
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

  // Against the map oracle. Shuffled duplicates, narrow and wider than
  // Row::kInlineCapacity, with weights in [-3, 3] so some sums cancel.
  Rng rng(41);
  const auto small = [](Rng& r) { return r.Uniform(-3, 3); };
  for (int width : {1, Row::kInlineCapacity + 3}) {
    ExpectNormalizeMatchesMap<S>(SchemaOfArity(width),
                                 RandomTuples<S>(rng, 300, 40, width, small));
  }
  // +k and -k sum to Zero(): rows {1} and {3} vanish, {2} keeps 4.
  ExpectNormalizeMatchesMap<S>(
      Schema{0}, {{Row{3}, 2}, {Row{1}, 5}, {Row{2}, 4}, {Row{1}, -5},
                  {Row{3}, -1}, {Row{3}, -1}});
  // Zero-arity rows are all one row; +2 -2 cancels, then +1 survives.
  ExpectNormalizeMatchesMap<S>(Schema{}, {{Row{}, 2}, {Row{}, -2}});
  ExpectNormalizeMatchesMap<S>(Schema{},
                               {{Row{}, 2}, {Row{}, -2}, {Row{}, 1}});
  // Empty relation.
  ExpectNormalizeMatchesMap<S>(Schema{0, 1}, {});
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

  // Already-sorted input, with adjacent duplicates and wide rows.
  Rng rng(43);
  const auto positive = [](Rng& r) { return r.Uniform(1, 9); };
  const int width = Row::kInlineCapacity + 1;
  std::vector<Tuple<S>> sorted =
      RandomTuples<S>(rng, 200, 30, width, positive);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.row < b.row; });
  ExpectNormalizeMatchesMap<S>(SchemaOfArity(width), sorted);
}

TEST(RelationTest, MinPlusNormalizeDropsInfinities) {
  Relation<MinPlusSemiring> rel(Schema{0});
  rel.Add(Row{1}, MinPlusSemiring::Zero());  // +inf = no path
  rel.Add(Row{2}, 5);
  rel.Normalize();
  ASSERT_EQ(rel.size(), 1);
  EXPECT_EQ(rel.tuples()[0].row, (Row{2}));

  // Against the map oracle: min over shuffled duplicates, about a third of
  // them +inf, so rows whose every copy is +inf vanish.
  using M = MinPlusSemiring;
  Rng rng(47);
  const auto cost = [](Rng& r) {
    return r.Uniform(0, 2) == 0 ? M::Zero() : r.Uniform(0, 50);
  };
  for (int width : {2, Row::kInlineCapacity + 1}) {
    ExpectNormalizeMatchesMap<M>(SchemaOfArity(width),
                                 RandomTuples<M>(rng, 200, 80, width, cost));
  }
  // min(inf, inf) is still Zero(): {1} vanishes, {2} keeps 3.
  ExpectNormalizeMatchesMap<M>(
      Schema{0}, {{Row{2}, M::Zero()}, {Row{1}, M::Zero()}, {Row{2}, 3},
                  {Row{1}, M::Zero()}});
  // Zero-arity and empty relations.
  ExpectNormalizeMatchesMap<M>(Schema{}, {{Row{}, 7}, {Row{}, 4}});
  ExpectNormalizeMatchesMap<M>(Schema{}, {{Row{}, M::Zero()}});
  ExpectNormalizeMatchesMap<M>(Schema{0}, {});
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
  for (const auto& part : dist.data.parts()) EXPECT_LE(part.size(), 11u);
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
  const Tuple<S>* found = nullptr;
  for (const auto& t : joined.tuples()) {
    if (t.row == (Row{2, 7, 6})) found = &t;
  }
  ASSERT_NE(found, nullptr) << "row (2, 7, 6) missing";
  EXPECT_EQ(found->w, 300);
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
