// Load-bound property suite: measured loads of every algorithm must stay
// within a constant factor of the Table 1 expressions on block-structured
// instances across a parameter grid. The constants are generous (they
// absorb the simulator's replication constants and the Õ log factors) but
// fixed — a regression that breaks the asymptotics will trip these.

#include <tuple>

#include <gtest/gtest.h>

#include "parjoin/algorithms/line_query.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/star_query.h"
#include "parjoin/algorithms/tree_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

class MatMulBoundTest
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(MatMulBoundTest, Theorem1LoadBound) {
  const auto [p, out] = GetParam();
  const std::int64_t n = 8000;
  MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(n, out, 4);
  mpc::Cluster cluster(p);
  auto instance = GenMatMulBlocks<S>(cluster, cfg);
  cluster.ResetStats();
  MatMul(cluster, std::move(instance.relations[0]),
         std::move(instance.relations[1]));
  const double bound = plan::NewMatMulBound(cfg.n1(), cfg.n2(), cfg.out(), p);
  EXPECT_LE(cluster.stats().max_load, static_cast<std::int64_t>(12 * bound))
      << "p=" << p << " OUT=" << cfg.out();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MatMulBoundTest,
    ::testing::Combine(::testing::Values(8, 32, 128),
                       ::testing::Values<std::int64_t>(256, 4096, 65536)));

TEST(LineBoundTest, Theorem4LoadBound) {
  for (int p : {16, 64}) {
    LineBlockConfig cfg;
    cfg.arity = 3;
    cfg.blocks = 8;
    cfg.side_end = 6;
    cfg.side_mid = 30;
    mpc::Cluster cluster(p);
    auto instance = GenLineBlocks<S>(cluster, cfg);
    const std::int64_t n = instance.relations[1].TotalSize();
    cluster.ResetStats();
    LineQueryAggregate(cluster, std::move(instance));
    const double bound = plan::NewLineStarBound(n, cfg.out(), p);
    EXPECT_LE(cluster.stats().max_load,
              static_cast<std::int64_t>(15 * bound))
        << "p=" << p;
  }
}

TEST(StarBoundTest, Theorem5LoadBound) {
  for (int p : {16, 64}) {
    StarBlockConfig cfg;
    cfg.arity = 3;
    cfg.blocks = 8;
    cfg.side_arm = 6;
    cfg.side_b = 24;
    mpc::Cluster cluster(p);
    auto instance = GenStarBlocks<S>(cluster, cfg);
    const std::int64_t n = instance.relations[0].TotalSize();
    cluster.ResetStats();
    StarQueryAggregate(cluster, std::move(instance));
    const double bound = plan::NewLineStarBound(n, cfg.out(), p);
    EXPECT_LE(cluster.stats().max_load,
              static_cast<std::int64_t>(15 * bound))
        << "p=" << p;
  }
}

TEST(ImprovementTest, MatMulBeatsYannakakisAsOutGrows) {
  // Table 1's qualitative claim: at fixed N the new algorithm's advantage
  // over Yannakakis grows with OUT (sqrt(OUT) vs OUT^(1/3) scaling).
  const int p = 64;
  double prev_speedup = 0;
  for (std::int64_t out : {1024, 16384, 262144}) {
    MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(16000, out, 8);
    mpc::Cluster c1(p), c2(p);
    auto i1 = GenMatMulBlocks<S>(c1, cfg);
    auto i2 = GenMatMulBlocks<S>(c2, cfg);
    c1.ResetStats();
    YannakakisJoinAggregate(c1, std::move(i1));
    c2.ResetStats();
    MatMul(c2, std::move(i2.relations[0]), std::move(i2.relations[1]));
    const double speedup = static_cast<double>(c1.stats().max_load) /
                           static_cast<double>(c2.stats().max_load);
    EXPECT_GT(speedup, 1.0) << "OUT=" << out;
    EXPECT_GT(speedup, prev_speedup * 0.9)
        << "advantage should not collapse as OUT grows (OUT=" << out << ")";
    prev_speedup = speedup;
  }
  EXPECT_GT(prev_speedup, 3.0) << "large-OUT speedup should be substantial";
}

TEST(ImprovementTest, WorstCaseOptimalIndependentOfOut) {
  // §3.1's load depends on N and p only; sweeping OUT at fixed N must
  // leave the measured load roughly flat.
  const int p = 16;
  std::int64_t lo = 0, hi = 0;
  for (std::int64_t out : {1024, 262144}) {
    MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(10000, out, 4);
    mpc::Cluster cluster(p);
    auto instance = GenMatMulBlocks<S>(cluster, cfg);
    cluster.ResetStats();
    MatMulOptions options;
    options.strategy = MatMulStrategy::kWorstCase;
    MatMul(cluster, std::move(instance.relations[0]),
           std::move(instance.relations[1]), options);
    (out == 1024 ? lo : hi) = cluster.stats().max_load;
  }
  EXPECT_LT(hi, 4 * lo) << "worst-case load should be OUT-insensitive";
  EXPECT_LT(lo, 4 * hi);
}

TEST(RoundsTest, AllAlgorithmsConstantRounds) {
  // Rounds must not scale with the input size (only with the query size
  // and the log-factor repetitions). Compare rounds at N and 4N.
  auto rounds_for = [](std::int64_t tuples) {
    mpc::Cluster cluster(16);
    auto instance = GenTreeRandom<S>(cluster, Fig2Query(), tuples,
                                     tuples * 4 / 5, 3);
    cluster.ResetStats();
    TreeQueryAggregate(cluster, std::move(instance));
    return cluster.stats().rounds;
  };
  const int r1 = rounds_for(60);
  const int r2 = rounds_for(240);
  EXPECT_LT(r2, 3 * r1 + 200)
      << "rounds grew superlogarithmically with N: " << r1 << " -> " << r2;
}

}  // namespace
}  // namespace parjoin
