// The tentpole guarantee of the threaded simulator: for every thread
// count, primitives and algorithms produce bit-identical outputs (same
// elements, same parts, same order) and bit-identical cost ledgers as the
// sequential PARJOIN_THREADS=1 path. SetParallelForThreads lets one
// process compare the two directly.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/common/hash.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using KV = std::pair<std::int64_t, std::int64_t>;

// Restores the default thread count when a test exits.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetParallelForThreads(0); }
};

mpc::Dist<KV> MakeInput(std::int64_t n, std::int64_t keys, int parts) {
  Rng rng(17);
  std::vector<KV> items;
  items.reserve(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    items.emplace_back(rng.Uniform(0, keys - 1), rng.Uniform(1, 9));
  }
  return mpc::ScatterEvenly(std::move(items), parts);
}

struct PrimitiveTrace {
  std::vector<std::vector<KV>> sorted;
  std::vector<std::vector<KV>> grouped;
  std::vector<std::vector<KV>> exchanged;
  std::vector<std::vector<KV>> replicated;
  std::vector<std::vector<KV>> reduced;
  mpc::Cluster::Stats stats;
};

PrimitiveTrace RunPrimitives(int threads) {
  SetParallelForThreads(threads);
  const int p = 16;
  mpc::Cluster c(p);
  // Large enough to cross the threaded-routing cutoff in Exchange.
  mpc::Dist<KV> input = MakeInput(1 << 15, 1 << 10, p);

  PrimitiveTrace trace;
  trace.sorted = mpc::Sort(c, input, [](const KV& a, const KV& b) {
                   return a.first < b.first;
                 }).parts();
  trace.grouped = mpc::SortGroupedByKey(c, input, [](const KV& kv) {
                    return kv.first;
                  }).parts();
  trace.exchanged = mpc::Exchange(c, input, p, [p](const KV& kv) {
                      return static_cast<int>(
                          Mix64(static_cast<std::uint64_t>(kv.first)) %
                          static_cast<std::uint64_t>(p));
                    }).parts();
  // Two or three destinations per item, some repeated and some on
  // virtual servers past p: the replicating router's threaded path must
  // deliver exactly the sequential order.
  trace.replicated =
      mpc::ExchangeMulti(c, input, 2 * p,
                         [p](const KV& kv, std::vector<int>* dests) {
                           const std::uint64_t h = Mix64(
                               static_cast<std::uint64_t>(kv.first));
                           dests->push_back(static_cast<int>(
                               h % static_cast<std::uint64_t>(2 * p)));
                           dests->push_back(static_cast<int>(
                               (h >> 20) % static_cast<std::uint64_t>(p)));
                           if (kv.second % 3 == 0) {
                             dests->push_back(dests->front());
                           }
                         })
          .parts();
  trace.reduced = mpc::ReduceByKey(
                      c, input, [](const KV& kv) { return kv.first; },
                      [](KV* acc, const KV& kv) { acc->second += kv.second; })
                      .parts();
  trace.stats = c.stats();
  return trace;
}

TEST(DeterminismTest, PrimitivesMatchSequentialBitForBit) {
  ThreadOverrideGuard guard;
  const PrimitiveTrace sequential = RunPrimitives(1);
  for (int threads : {2, 3, 4, 7, 8}) {
    const PrimitiveTrace threaded = RunPrimitives(threads);
    EXPECT_EQ(threaded.sorted, sequential.sorted) << "threads=" << threads;
    EXPECT_EQ(threaded.grouped, sequential.grouped) << "threads=" << threads;
    EXPECT_EQ(threaded.exchanged, sequential.exchanged)
        << "threads=" << threads;
    EXPECT_EQ(threaded.replicated, sequential.replicated)
        << "threads=" << threads;
    EXPECT_EQ(threaded.reduced, sequential.reduced) << "threads=" << threads;
    EXPECT_EQ(threaded.stats.rounds, sequential.stats.rounds);
    EXPECT_EQ(threaded.stats.max_load, sequential.stats.max_load);
    EXPECT_EQ(threaded.stats.total_comm, sequential.stats.total_comm);
    EXPECT_EQ(threaded.stats.critical_path, sequential.stats.critical_path);
  }
}

TEST(DeterminismTest, TwoWayJoinMatchesSequentialBitForBit) {
  ThreadOverrideGuard guard;
  using S = CountingSemiring;
  MatMulGenConfig cfg;
  cfg.n1 = 4000;
  cfg.n2 = 3600;
  cfg.dom_a = 300;
  cfg.dom_b = 40;  // few join values => heavy skew => grids exercised
  cfg.dom_c = 300;
  cfg.skew_b = 0.9;
  cfg.seed = 23;

  std::vector<std::vector<Tuple<S>>> sequential_parts;
  mpc::Cluster::Stats sequential_stats;
  for (int threads : {1, 5}) {
    SetParallelForThreads(threads);
    mpc::Cluster c(16);
    auto instance = GenMatMulRandom<S>(c, cfg);
    c.ResetStats();
    DistRelation<S> joined =
        TwoWayJoin(c, instance.relations[0], instance.relations[1]);
    if (threads == 1) {
      sequential_parts = std::move(joined.data.parts());
      sequential_stats = c.stats();
      continue;
    }
    ASSERT_EQ(joined.data.num_parts(),
              static_cast<int>(sequential_parts.size()));
    for (int s = 0; s < joined.data.num_parts(); ++s) {
      const auto& got = joined.data.part(s);
      const auto& want = sequential_parts[static_cast<size_t>(s)];
      ASSERT_EQ(got.size(), want.size()) << "part " << s;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i].row == want[i].row) << "part " << s << " #" << i;
        EXPECT_EQ(got[i].w, want[i].w) << "part " << s << " #" << i;
      }
    }
    EXPECT_EQ(c.stats().rounds, sequential_stats.rounds);
    EXPECT_EQ(c.stats().max_load, sequential_stats.max_load);
    EXPECT_EQ(c.stats().total_comm, sequential_stats.total_comm);
  }
}

}  // namespace
}  // namespace parjoin
