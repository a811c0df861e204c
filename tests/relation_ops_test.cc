// Tests for the relational MPC operations: partitioning, aggregation,
// degrees, semijoin, annotation push-down, dangling removal, and the §7
// query reduction.

#include "parjoin/relation/ops.h"

#include <map>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "parjoin/algorithms/reference.h"
#include "parjoin/query/dangling.h"
#include "parjoin/query/reduce.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

Relation<S> MakeRelation(Schema schema,
                         std::vector<std::pair<Row, std::int64_t>> rows) {
  Relation<S> rel(std::move(schema));
  for (auto& [row, w] : rows) rel.Add(std::move(row), w);
  return rel;
}

TEST(HashPartitionTest, CoLocatesEqualKeys) {
  mpc::Cluster cluster(4);
  MatMulGenConfig cfg;
  cfg.n1 = 200;
  cfg.dom_b = 20;
  auto instance = GenMatMulRandom<S>(cluster, cfg);
  auto parted = HashPartitionByAttrs(cluster, instance.relations[0], {1});
  // Every B value appears in exactly one part.
  std::map<Value, int> home;
  const int b_pos = parted.schema.IndexOf(1);
  for (int s = 0; s < parted.data.num_parts(); ++s) {
    for (const auto& t : parted.data.part(s)) {
      auto [it, inserted] = home.emplace(t.row[b_pos], s);
      if (!inserted) {
        EXPECT_EQ(it->second, s);
      }
    }
  }
  EXPECT_EQ(parted.TotalSize(), instance.relations[0].TotalSize());
}

TEST(AggregateByAttrsTest, MatchesLocalAggregate) {
  mpc::Cluster cluster(4);
  Relation<S> rel = MakeRelation(Schema{0, 1, 2}, {
      {Row{1, 2, 3}, 4}, {Row{1, 2, 4}, 5}, {Row{1, 3, 3}, 1},
      {Row{2, 2, 3}, 7}, {Row{1, 2, 9}, 2}});
  auto dist = Distribute(cluster, rel);
  auto agg = AggregateByAttrs(cluster, dist, {0, 1});
  Relation<S> got = agg.ToLocal();
  got.Normalize();
  Relation<S> expected = LocalAggregate(rel, {0, 1});
  expected.Normalize();
  EXPECT_TRUE(got == expected);
}

TEST(AggregateByAttrsTest, EmptyGroupGivesGrandTotal) {
  mpc::Cluster cluster(3);
  Relation<S> rel = MakeRelation(Schema{0, 1}, {{Row{1, 2}, 4},
                                                {Row{3, 4}, 6}});
  auto agg = AggregateByAttrs(cluster, Distribute(cluster, rel), {});
  Relation<S> got = agg.ToLocal();
  ASSERT_EQ(got.size(), 1);
  EXPECT_EQ(got.tuples()[0].w, 10);
}

TEST(DegreesTest, CountsPerValue) {
  mpc::Cluster cluster(4);
  Relation<S> rel = MakeRelation(
      Schema{0, 1},
      {{Row{1, 5}, 1}, {Row{2, 5}, 1}, {Row{3, 5}, 1}, {Row{4, 7}, 1}});
  auto degrees = DegreesByAttr(cluster, Distribute(cluster, rel), 1);
  std::map<Value, std::int64_t> got;
  degrees.ForEach([&](const ValueCount& vc) { got[vc.value] = vc.count; });
  EXPECT_EQ(got, (std::map<Value, std::int64_t>{{5, 3}, {7, 1}}));
}

TEST(CollectStatsAtLeastTest, FiltersByThresholdInOneChargedRound) {
  mpc::Cluster cluster(4);
  Relation<S> rel(Schema{0, 1});
  for (int i = 0; i < 10; ++i) rel.Add(Row{i, 100}, 1);
  for (int i = 0; i < 5; ++i) rel.Add(Row{i, 300}, 1);
  for (int i = 0; i < 3; ++i) rel.Add(Row{i, 200}, 1);
  auto degrees = DegreesByAttr(cluster, Distribute(cluster, rel), 1);
  cluster.ResetStats();
  // The threshold is inclusive: 300 (count 5) is heavy, 200 (count 3) not.
  const auto heavy = CollectStatsAtLeast(cluster, degrees, 5);
  EXPECT_EQ(heavy, (std::unordered_map<Value, std::int64_t>{{100, 10},
                                                            {300, 5}}));
  // Making the heavy set known everywhere is one round of |heavy| per
  // server.
  EXPECT_EQ(cluster.stats().rounds, 1);
  EXPECT_EQ(cluster.stats().max_load, 2);
  EXPECT_EQ(cluster.stats().total_comm, 2 * 4);
}

TEST(SemijoinTest, KeepsOnlyMatching) {
  mpc::Cluster cluster(4);
  Relation<S> r = MakeRelation(
      Schema{0, 1},
      {{Row{1, 10}, 1}, {Row{2, 20}, 1}, {Row{3, 30}, 1}});
  Relation<S> s = MakeRelation(Schema{1, 2},
                               {{Row{10, 7}, 1}, {Row{30, 8}, 1}});
  auto result = Semijoin(cluster, Distribute(cluster, r),
                         Distribute(cluster, s));
  Relation<S> got = result.ToLocal();
  got.Normalize();
  Relation<S> expected = MakeRelation(
      Schema{0, 1}, {{Row{1, 10}, 1}, {Row{3, 30}, 1}});
  expected.Normalize();
  EXPECT_TRUE(got == expected);
}

TEST(MultiplyIntoByAttrTest, AttachesFactorsAndDropsMisses) {
  mpc::Cluster cluster(4);
  Relation<S> rel = MakeRelation(
      Schema{0, 1}, {{Row{1, 10}, 2}, {Row{2, 20}, 3}, {Row{3, 30}, 5}});
  Relation<S> factors =
      MakeRelation(Schema{1}, {{Row{10}, 7}, {Row{30}, 11}});
  auto result = MultiplyIntoByAttr(cluster, Distribute(cluster, rel),
                                   Distribute(cluster, factors), 1);
  Relation<S> got = result.ToLocal();
  got.Normalize();
  Relation<S> expected = MakeRelation(
      Schema{0, 1}, {{Row{1, 10}, 14}, {Row{3, 30}, 55}});
  expected.Normalize();
  EXPECT_TRUE(got == expected);
}

TEST(RemoveDanglingTest, FullReducerOnChain) {
  mpc::Cluster cluster(4);
  // Chain 0-1-2-3; only value 5 survives end-to-end.
  Relation<S> r1 = MakeRelation(Schema{0, 1},
                                {{Row{1, 5}, 1}, {Row{2, 6}, 1}});
  Relation<S> r2 = MakeRelation(Schema{1, 2},
                                {{Row{5, 5}, 1}, {Row{7, 7}, 1}});
  Relation<S> r3 = MakeRelation(Schema{2, 3},
                                {{Row{5, 9}, 1}, {Row{8, 8}, 1}});
  TreeInstance<S> instance{JoinTree({{0, 1}, {1, 2}, {2, 3}}, {0, 3}), {}};
  instance.relations.push_back(Distribute(cluster, r1));
  instance.relations.push_back(Distribute(cluster, r2));
  instance.relations.push_back(Distribute(cluster, r3));
  RemoveDangling(cluster, &instance);
  EXPECT_EQ(instance.relations[0].TotalSize(), 1);
  EXPECT_EQ(instance.relations[1].TotalSize(), 1);
  EXPECT_EQ(instance.relations[2].TotalSize(), 1);
}

TEST(RemoveDanglingTest, PreservesQueryResultOnRandomTrees) {
  mpc::Cluster cluster(4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto instance =
        GenTreeRandom<S>(cluster, Fig2Query(), 20, 20, seed);
    Relation<S> before = EvaluateReference(instance);
    RemoveDangling(cluster, &instance);
    Relation<S> after = EvaluateReference(instance);
    EXPECT_TRUE(before == after) << "seed " << seed;
  }
}

TEST(RemoveDanglingTest, NoFalseRemovals) {
  mpc::Cluster cluster(4);
  // Block instance: nothing dangles.
  MatMulBlockConfig cfg;
  auto instance = GenMatMulBlocks<S>(cluster, cfg);
  const auto n1 = instance.relations[0].TotalSize();
  const auto n2 = instance.relations[1].TotalSize();
  RemoveDangling(cluster, &instance);
  EXPECT_EQ(instance.relations[0].TotalSize(), n1);
  EXPECT_EQ(instance.relations[1].TotalSize(), n2);
}

TEST(ReduceInstanceTest, FoldsPrivateNonOutputAttrs) {
  mpc::Cluster cluster(4);
  // Path 0-1-2-3 with y = {0, 2}: attr 3 is private non-output; edge (2,3)
  // folds into (1,2). Then no more rules apply (0 is output, 1 interior).
  auto instance = GenTreeRandom<S>(
      cluster, JoinTree({{0, 1}, {1, 2}, {2, 3}}, {0, 2}), 40, 8, 3);
  Relation<S> before = EvaluateReference(instance);
  ReduceInstance(cluster, &instance);
  EXPECT_EQ(instance.query.num_edges(), 2);
  Relation<S> after = EvaluateReference(instance);
  EXPECT_TRUE(before == after);
  // Every leaf of the reduced query is an output attribute.
  for (AttrId a : instance.query.attrs()) {
    if (instance.query.Degree(a) == 1) {
      EXPECT_TRUE(instance.query.IsOutput(a));
    }
  }
}

TEST(ReduceInstanceTest, ChainCollapsesToSingleEdgeForScalarQuery) {
  mpc::Cluster cluster(4);
  // y = {} on a 3-chain: folds to one edge (full aggregate handled later).
  auto instance = GenTreeRandom<S>(
      cluster, JoinTree({{0, 1}, {1, 2}, {2, 3}}, {}), 20, 6, 9);
  Relation<S> before = EvaluateReference(instance);
  ReduceInstance(cluster, &instance);
  EXPECT_EQ(instance.query.num_edges(), 1);
  Relation<S> after = EvaluateReference(instance);
  EXPECT_TRUE(before == after);
}

TEST(ReduceInstanceTest, Fig2ReductionKeepsSemantics) {
  mpc::Cluster cluster(4);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto instance = GenTreeRandom<S>(cluster, Fig2Query(), 16, 16, seed);
    Relation<S> before = EvaluateReference(instance);
    ReduceInstance(cluster, &instance);
    Relation<S> after = EvaluateReference(instance);
    EXPECT_TRUE(before == after) << "seed " << seed;
  }
}

}  // namespace
}  // namespace parjoin
