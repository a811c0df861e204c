// Tests for the MPC core: cluster load accounting, exchange variants, and
// the §2.1 primitives (sort, grouped sort, reduce-by-key, parallel
// packing).

#include "parjoin/mpc/primitives.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/common/row.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"
#include "parjoin/semiring/semirings.h"

namespace parjoin {
namespace mpc {
namespace {

TEST(ClusterTest, ChargeRoundTracksMaxAndTotal) {
  Cluster c(4);
  c.ChargeRound({1, 2, 3, 4});
  EXPECT_EQ(c.stats().rounds, 1);
  EXPECT_EQ(c.stats().max_load, 4);
  EXPECT_EQ(c.stats().total_comm, 10);
  c.ChargeRound({10, 0, 0, 0});
  EXPECT_EQ(c.stats().rounds, 2);
  EXPECT_EQ(c.stats().max_load, 10);
  EXPECT_EQ(c.stats().total_comm, 20);
}

TEST(ClusterTest, VirtualServersChargePhysicalHosts) {
  Cluster c(2);
  // Virtual servers 0..3 map to physical 0,1,0,1.
  c.ChargeRound({1, 1, 1, 1});
  EXPECT_EQ(c.stats().max_load, 2);
}

TEST(ClusterTest, ResetStatsClears) {
  Cluster c(2);
  c.ChargeRound({5, 5});
  c.ResetStats();
  EXPECT_EQ(c.stats().rounds, 0);
  EXPECT_EQ(c.stats().max_load, 0);
}

TEST(DistTest, ScatterEvenlyBalances) {
  std::vector<int> items(103);
  std::iota(items.begin(), items.end(), 0);
  Dist<int> d = ScatterEvenly(items, 10);
  EXPECT_EQ(d.TotalSize(), 103);
  for (const auto& part : d.parts()) EXPECT_LE(part.size(), 11u);
  std::vector<int> back = d.Flatten();
  EXPECT_EQ(back, items);
}

TEST(ExchangeTest, RoutesEveryItemAndCharges) {
  Cluster c(4);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  Dist<int> in = ScatterEvenly(items, 4);
  Dist<int> out = Exchange(c, in, 4, [](int x) { return x % 4; });
  EXPECT_EQ(out.TotalSize(), 100);
  for (int s = 0; s < 4; ++s) {
    for (int x : out.part(s)) EXPECT_EQ(x % 4, s);
  }
  EXPECT_EQ(c.stats().rounds, 1);
  EXPECT_EQ(c.stats().total_comm, 100);
  EXPECT_EQ(c.stats().max_load, 25);
}

TEST(ExchangeTest, MultiReplicates) {
  Cluster c(3);
  Dist<int> in = ScatterEvenly(std::vector<int>{1, 2, 3}, 3);
  Dist<int> out = ExchangeMulti(c, in, 3, [](int, std::vector<int>* dests) {
    dests->push_back(0);
    dests->push_back(2);
  });
  EXPECT_EQ(out.part(0).size(), 3u);
  EXPECT_EQ(out.part(1).size(), 0u);
  EXPECT_EQ(out.part(2).size(), 3u);
  EXPECT_EQ(c.stats().max_load, 3);
}

TEST(ExchangeTest, BroadcastDeliversEverywhere) {
  Cluster c(5);
  Dist<int> in = ScatterEvenly(std::vector<int>{7, 8}, 5);
  Dist<int> out = Broadcast(c, in);
  for (int s = 0; s < 5; ++s) {
    EXPECT_EQ(out.part(s), (std::vector<int>{7, 8}));
  }
  EXPECT_EQ(c.stats().max_load, 2);
}

TEST(SortTest, GloballySortsAndBalances) {
  Cluster c(8);
  Rng rng(7);
  std::vector<std::int64_t> items;
  for (int i = 0; i < 1000; ++i) items.push_back(rng.Uniform(0, 500));
  Dist<std::int64_t> in = ScatterEvenly(items, 8);
  Dist<std::int64_t> out =
      Sort(c, in, [](std::int64_t a, std::int64_t b) { return a < b; });
  EXPECT_EQ(out.TotalSize(), 1000);
  std::vector<std::int64_t> flat = out.Flatten();
  EXPECT_TRUE(std::is_sorted(flat.begin(), flat.end()));
  for (const auto& part : out.parts()) EXPECT_LE(part.size(), 125u);
  EXPECT_LE(c.stats().max_load, 125);
}

TEST(SortGroupedTest, EqualKeysLandTogether) {
  Cluster c(4);
  Rng rng(11);
  struct Item {
    std::int64_t key;
    int payload;
  };
  std::vector<Item> items;
  for (int i = 0; i < 400; ++i) {
    items.push_back({rng.Uniform(0, 50), i});
  }
  Dist<Item> in = ScatterEvenly(items, 4);
  Dist<Item> out =
      SortGroupedByKey(c, in, [](const Item& it) { return it.key; });
  EXPECT_EQ(out.TotalSize(), 400);
  // Every key appears in exactly one part.
  std::map<std::int64_t, int> key_part;
  for (int s = 0; s < out.num_parts(); ++s) {
    for (const auto& it : out.part(s)) {
      auto [pos, inserted] = key_part.emplace(it.key, s);
      if (!inserted) {
        EXPECT_EQ(pos->second, s) << "key split across parts";
      }
    }
  }
}

TEST(SortGroupedTest, RunSpanningManyPartsLandsOnRunStart) {
  // 6 parts of 3 items each; key 2 occupies the sorted middle (9 copies),
  // so its run spans parts 1, 2, and 3 (more than two consecutive
  // servers). The fix round must move the whole run to the part where it
  // starts, not just merge one boundary.
  Cluster c(6);
  struct Item {
    std::int64_t key;
    int payload;
  };
  std::vector<Item> items;
  const std::int64_t keys[] = {1, 1, 1, 2, 2, 2, 2, 2, 2,
                               2, 2, 2, 3, 3, 3, 4, 4, 4};
  for (int i = 0; i < 18; ++i) items.push_back({keys[i], i});
  Dist<Item> in = ScatterEvenly(items, 6);
  Dist<Item> out =
      SortGroupedByKey(c, in, [](const Item& it) { return it.key; });
  EXPECT_EQ(out.TotalSize(), 18);
  std::map<std::int64_t, int> key_part;
  std::map<std::int64_t, int> key_count;
  for (int s = 0; s < out.num_parts(); ++s) {
    for (const auto& it : out.part(s)) {
      auto [pos, inserted] = key_part.emplace(it.key, s);
      if (!inserted) {
        EXPECT_EQ(pos->second, s) << "key " << it.key << " split across parts";
      }
      key_count[it.key] += 1;
    }
  }
  EXPECT_EQ(key_count[2], 9);
  // The run of key 2 starts in part 1 (sorted layout: part 0 = {1,1,1},
  // part 1 = {2,2,2}, ...), so that's where all of it must live.
  EXPECT_EQ(key_part[2], 1);
}

TEST(ReduceByKeyTest, SumsPerKey) {
  Cluster c(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  Rng rng(3);
  std::map<std::int64_t, std::int64_t> expected;
  for (int i = 0; i < 500; ++i) {
    std::int64_t k = rng.Uniform(0, 40);
    std::int64_t v = rng.Uniform(1, 9);
    items.emplace_back(k, v);
    expected[k] += v;
  }
  auto in = ScatterEvenly(items, 4);
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  std::map<std::int64_t, std::int64_t> got;
  out.ForEach([&](const auto& kv) {
    EXPECT_EQ(got.count(kv.first), 0u) << "duplicate key in output";
    got[kv.first] = kv.second;
  });
  EXPECT_EQ(got, expected);
}

TEST(ReduceByKeyTest, SkewedKeyIsPreAggregated) {
  // All 10k items share one key: local pre-aggregation must keep the load
  // tiny (this is what makes reduce-by-key linear-load under skew).
  Cluster c(8);
  std::vector<std::pair<std::int64_t, std::int64_t>> items(
      10000, {42, 1});
  auto in = ScatterEvenly(items, 8);
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  EXPECT_EQ(out.TotalSize(), 1);
  std::int64_t total = 0;
  out.ForEach([&](const auto& kv) { total = kv.second; });
  EXPECT_EQ(total, 10000);
  EXPECT_LE(c.stats().max_load, 16) << "pre-aggregation should cap the load";
}

TEST(ReduceByKeyTest, CombinesAcrossPartBoundaries) {
  Cluster c(3);
  // Keys chosen so the sorted order straddles part boundaries.
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (int i = 0; i < 9; ++i) items.emplace_back(i / 3, 1);
  auto in = ScatterEvenly(items, 3);
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  std::map<std::int64_t, std::int64_t> got;
  out.ForEach([&](const auto& kv) { got[kv.first] += kv.second; });
  EXPECT_EQ(got, (std::map<std::int64_t, std::int64_t>{{0, 3}, {1, 3}, {2, 3}}));
  EXPECT_EQ(out.TotalSize(), 3);
}

TEST(ReduceByKeyTest, KeyRunSpanningManyPartsCombinesIntoRunStart) {
  // After pre-aggregation, one item with key 7 survives per source part;
  // the global sort spreads the run of key 7 over parts 0..3 (it starts
  // mid-part 0, after key 1). The boundary fix must walk back across
  // MULTIPLE parts and combine everything into the run's start.
  Cluster c(4);
  std::vector<std::pair<std::int64_t, std::int64_t>> items = {
      {1, 1}, {7, 1}, {7, 2}, {7, 3}, {7, 4}, {7, 5}, {7, 6}, {9, 1}};
  auto in = ScatterEvenly(items, 4);  // 2 items per source part
  auto out = ReduceByKey(
      c, in, [](const auto& kv) { return kv.first; },
      [](auto* acc, const auto& kv) { acc->second += kv.second; });
  std::map<std::int64_t, std::int64_t> got;
  int parts_with_key7 = 0;
  for (int s = 0; s < out.num_parts(); ++s) {
    for (const auto& kv : out.part(s)) {
      EXPECT_EQ(got.count(kv.first), 0u) << "duplicate key " << kv.first;
      got[kv.first] = kv.second;
      if (kv.first == 7) ++parts_with_key7;
    }
  }
  EXPECT_EQ(got, (std::map<std::int64_t, std::int64_t>{
                     {1, 1}, {7, 21}, {9, 1}}));
  EXPECT_EQ(parts_with_key7, 1);
}

TEST(ParallelPackingTest, RespectsCapacityAndFill) {
  Cluster c(4);
  Rng rng(5);
  std::vector<PackedItem> items;
  double total = 0;
  for (int i = 0; i < 200; ++i) {
    double w = rng.UniformDouble() * 0.99 + 0.01;
    items.push_back({i, w});
    total += w;
  }
  const Packing packed = ParallelPacking(c, items);
  std::map<int, double> group_sum;
  for (const auto& it : items) {
    const int g = packed.group_of.at(it.id);
    ASSERT_GE(g, 0);
    ASSERT_LT(g, packed.groups);
    group_sum[g] += it.weight;
  }
  int under_half = 0;
  for (const auto& [g, sum] : group_sum) {
    EXPECT_LE(sum, 1.0 + 1e-9);
    if (sum < 0.5) ++under_half;
  }
  EXPECT_LE(under_half, 1) << "all but one group must be at least half full";
  EXPECT_LE(static_cast<double>(group_sum.size()), 1 + 2 * total);
}

TEST(ParallelPackingTest, SingleHeavyItemsGetOwnGroups) {
  Cluster c(2);
  std::vector<PackedItem> items = {{0, 0.9}, {1, 0.8}, {2, 0.1}};
  const Packing packed = ParallelPacking(c, items);
  EXPECT_NE(packed.group_of.at(0), packed.group_of.at(1));
}

TEST(ParallelRegionTest, RoundsCountLongestBranch) {
  Cluster c(4);
  {
    ParallelRegion region(c);
    region.NextBranch();
    c.ChargeRound({1, 0, 0, 0});
    c.ChargeRound({1, 0, 0, 0});  // branch 1: 2 rounds
    region.NextBranch();
    c.ChargeRound({0, 5, 0, 0});  // branch 2: 1 round
    region.NextBranch();
    for (int i = 0; i < 5; ++i) c.ChargeRound({0, 0, 1, 0});  // 5 rounds
  }
  EXPECT_EQ(c.stats().rounds, 5) << "max over branches, not the sum";
  EXPECT_EQ(c.stats().max_load, 5) << "loads unaffected";
  EXPECT_EQ(c.stats().total_comm, 12) << "total comm unaffected";
}

TEST(ParallelRegionTest, NestedRegions) {
  Cluster c(2);
  {
    ParallelRegion outer(c);
    outer.NextBranch();
    c.ChargeRound({1, 0});
    {
      ParallelRegion inner(c);
      inner.NextBranch();
      c.ChargeRound({1, 0});
      c.ChargeRound({1, 0});
      inner.NextBranch();
      c.ChargeRound({0, 1});
    }  // inner contributes max(2, 1) = 2 rounds
    outer.NextBranch();
    c.ChargeRound({0, 1});  // second outer branch: 1 round
  }
  EXPECT_EQ(c.stats().rounds, 3) << "1 + inner(2) vs 1 -> max is 3";
}

TEST(ParallelRegionTest, EmptyRegionAddsNothing) {
  Cluster c(2);
  c.ChargeRound({1, 1});
  {
    ParallelRegion region(c);
    region.NextBranch();
    region.NextBranch();
  }
  EXPECT_EQ(c.stats().rounds, 1);
}

// --- Splitter merge ---------------------------------------------------------

// Restores the default thread count when a test exits.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetParallelForThreads(0); }
};

TEST(SortTest, SplitterMergeMatchesPairwiseLadder) {
  // Provenance-tagged items: keys carry many duplicates and the tag
  // encodes (run, position), so any stability violation — a tie resolved
  // to the wrong run, or reordering within a run — changes the output.
  using Tagged = std::pair<std::int64_t, std::int64_t>;
  const auto by_key = [](const Tagged& a, const Tagged& b) {
    return a.first < b.first;
  };
  Rng rng(11);
  std::vector<std::vector<Tagged>> runs(7);
  for (int r = 0; r < 7; ++r) {
    const int len = r == 3 ? 0 : 2000 + 700 * r;  // skewed, one run empty
    auto& run = runs[static_cast<size_t>(r)];
    for (int i = 0; i < len; ++i) {
      run.push_back({rng.Uniform(0, 199), r * 1000000 + i});
    }
    std::stable_sort(run.begin(), run.end(), by_key);
  }
  const auto pairwise =
      internal_primitives::MergeSortedRunsPairwise(runs, by_key);
  ThreadOverrideGuard guard;
  SetParallelForThreads(4);  // total > kSplitterMergeMinTotal: splitter path
  const auto splitter = internal_primitives::MergeSortedRuns(runs, by_key);
  ASSERT_EQ(splitter.size(), pairwise.size());
  EXPECT_EQ(splitter, pairwise);
  for (size_t i = 1; i < splitter.size(); ++i) {
    ASSERT_LE(splitter[i - 1].first, splitter[i].first)
        << "not sorted at " << i;
    if (splitter[i - 1].first == splitter[i].first) {
      ASSERT_LT(splitter[i - 1].second, splitter[i].second)
          << "tie broken against run order at " << i;
    }
  }
}

// --- Zero-weight packing ----------------------------------------------------

TEST(ParallelPackingTest, ZeroWeightItemsRideAlongWithoutNewGroups) {
  Cluster c(2);
  std::vector<PackedItem> items = {{0, 0.6}, {1, 0.0}, {2, 0.4},
                                   {3, 0.0}, {4, 0.3}, {5, 0.0}};
  const double total = 0.6 + 0.4 + 0.3;
  const Packing packed = ParallelPacking(c, items);
  std::map<int, double> group_sum;
  for (const auto& it : items) {
    const int g = packed.group_of.at(it.id);
    ASSERT_GE(g, 0) << "item " << it.id << " left unassigned";
    group_sum[g] += it.weight;
  }
  for (const auto& [g, sum] : group_sum) EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_LE(static_cast<double>(group_sum.size()), 1 + 2 * total)
      << "zero-weight items must not open groups of their own";
}

TEST(ParallelPackingTest, AllZeroWeightsShareOneGroup) {
  // m <= 1 + 2*sum(w) forces a single group when every weight is zero.
  Cluster c(2);
  std::vector<PackedItem> items = {{0, 0.0}, {1, 0.0}, {2, 0.0}};
  const Packing packed = ParallelPacking(c, items);
  EXPECT_EQ(packed.groups, 1);
  ASSERT_EQ(packed.group_of.size(), 3u);
  for (const auto& [id, g] : packed.group_of) EXPECT_EQ(g, 0);
}

// --- ReduceByKey on a copied or a moved input --------------------------------

TEST(ReduceByKeyTest, CopiedLvalueMatchesMovedInput) {
  Rng rng(9);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (int i = 0; i < 600; ++i) {
    items.emplace_back(rng.Uniform(0, 29), rng.Uniform(1, 9));
  }
  auto in = ScatterEvenly(std::move(items), 5);
  const auto snapshot = in.parts();
  const auto key = [](const auto& kv) { return kv.first; };
  const auto add = [](auto* acc, const auto& kv) { acc->second += kv.second; };
  Cluster c_copy(5);
  auto copied = ReduceByKey(c_copy, in, key, add);
  EXPECT_EQ(in.parts(), snapshot) << "an lvalue argument must stay intact";
  Cluster c_move(5);
  auto moved = ReduceByKey(c_move, std::move(in), key, add);
  EXPECT_EQ(moved.parts(), copied.parts());
  EXPECT_EQ(c_move.stats().rounds, c_copy.stats().rounds);
  EXPECT_EQ(c_move.stats().max_load, c_copy.stats().max_load);
  EXPECT_EQ(c_move.stats().total_comm, c_copy.stats().total_comm);
  EXPECT_EQ(c_move.stats().critical_path, c_copy.stats().critical_path);
}

// --- Adversarial fix-round shapes -------------------------------------------
//
// Executable specification for both fix rounds, stated per item of the
// globally sorted array: an item's run home is the server (under
// ScatterEvenly's ceil(n/p) chunking) holding the first element of its
// equal-key run; every item placed outside its run home charges one
// unit to the home; SortGroupedByKey relocates items to their run homes
// (in global order); ReduceByKey emits one combined item per key at the
// run home, after per-input-part pre-aggregation. Each shape is checked
// against this oracle, for charge parity (primitive stats = sort-only
// stats + exactly the oracle's fix round), and for bit-identical outputs
// and charges at thread counts 1 vs 4.
//
// The harness runs on two item types: KV pairs keyed by their first
// field, and relation tuples keyed by their Row (reduced through
// ReduceByRow). Moving a KV leaves its key readable; moving a Row empties
// it, so only the Row shapes catch a fix round that reads a key after
// moving its item.

using KV = std::pair<std::int64_t, std::int64_t>;

struct KVItems {
  using Item = KV;
  static std::int64_t Key(const KV& kv) { return kv.first; }
  static void Add(KV* acc, const KV& kv) { acc->second += kv.second; }
  static Dist<KV> Reduce(Cluster& c, Dist<KV> in) {
    return ReduceByKey(c, std::move(in), Key, Add);
  }
};

using RowTuple = Tuple<CountingSemiring>;

struct RowItems {
  using Item = RowTuple;
  static const Row& Key(const RowTuple& t) { return t.row; }
  static void Add(RowTuple* acc, const RowTuple& t) { acc->w += t.w; }
  static Dist<RowTuple> Reduce(Cluster& c, Dist<RowTuple> in) {
    return ReduceByRow(c, std::move(in));
  }
};

template <typename Items>
bool ByKey(const typename Items::Item& a, const typename Items::Item& b) {
  return Items::Key(a) < Items::Key(b);
}

template <typename Items>
using Parts = std::vector<std::vector<typename Items::Item>>;

template <typename Items>
struct ShapeTrace {
  Parts<Items> grouped;
  Parts<Items> reduced;
  Cluster::Stats grouped_stats;
  Cluster::Stats reduced_stats;
};

template <typename Items>
ShapeTrace<Items> RunShape(const Parts<Items>& input, int p, int threads) {
  using Item = typename Items::Item;
  SetParallelForThreads(threads);
  ShapeTrace<Items> trace;
  {
    Cluster c(p);
    trace.grouped = SortGroupedByKey(c, Dist<Item>(input), Items::Key).parts();
    trace.grouped_stats = c.stats();
  }
  {
    Cluster c(p);
    trace.reduced = Items::Reduce(c, Dist<Item>(input)).parts();
    trace.reduced_stats = c.stats();
  }
  return trace;
}

template <typename Items>
struct FixOracle {
  Parts<Items> grouped;
  Parts<Items> reduced;
  std::vector<std::int64_t> grouped_received;
  std::vector<std::int64_t> reduced_received;
  Parts<Items> pre_parts;  // pre-aggregated input per part
};

template <typename Items>
FixOracle<Items> ComputeFixOracle(const Parts<Items>& input, int p) {
  using Item = typename Items::Item;
  FixOracle<Items> o;
  o.grouped.resize(static_cast<size_t>(p));
  o.reduced.resize(static_cast<size_t>(p));
  o.grouped_received.assign(static_cast<size_t>(p), 0);
  o.reduced_received.assign(static_cast<size_t>(p), 0);

  std::vector<Item> all;
  for (const auto& part : input) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::stable_sort(all.begin(), all.end(), ByKey<Items>);
  {
    const std::int64_t n = static_cast<std::int64_t>(all.size());
    const std::int64_t chunk = (n + p - 1) / p;
    std::int64_t i = 0;
    while (i < n) {
      std::int64_t j = i;
      while (j < n && Items::Key(all[static_cast<size_t>(j)]) ==
                          Items::Key(all[static_cast<size_t>(i)])) {
        ++j;
      }
      const std::int64_t home = i / chunk;
      for (std::int64_t t = i; t < j; ++t) {
        o.grouped[static_cast<size_t>(home)].push_back(
            all[static_cast<size_t>(t)]);
        if (t / chunk != home) ++o.grouped_received[static_cast<size_t>(home)];
      }
      i = j;
    }
  }

  o.pre_parts.resize(input.size());
  std::vector<Item> pre_all;
  for (size_t s = 0; s < input.size(); ++s) {
    std::vector<Item> local = input[s];
    std::stable_sort(local.begin(), local.end(), ByKey<Items>);
    auto& dst = o.pre_parts[s];
    for (const auto& item : local) {
      if (!dst.empty() && Items::Key(dst.back()) == Items::Key(item)) {
        Items::Add(&dst.back(), item);
      } else {
        dst.push_back(item);
      }
    }
    pre_all.insert(pre_all.end(), dst.begin(), dst.end());
  }
  std::stable_sort(pre_all.begin(), pre_all.end(), ByKey<Items>);
  {
    const std::int64_t n = static_cast<std::int64_t>(pre_all.size());
    const std::int64_t chunk = (n + p - 1) / p;
    std::int64_t i = 0;
    while (i < n) {
      std::int64_t j = i;
      Item folded = pre_all[static_cast<size_t>(i)];
      while (++j < n && Items::Key(pre_all[static_cast<size_t>(j)]) ==
                            Items::Key(folded)) {
        Items::Add(&folded, pre_all[static_cast<size_t>(j)]);
      }
      const std::int64_t home = i / chunk;
      o.reduced[static_cast<size_t>(home)].push_back(folded);
      for (std::int64_t t = i; t < j; ++t) {
        if (t / chunk != home) ++o.reduced_received[static_cast<size_t>(home)];
      }
      i = j;
    }
  }
  return o;
}

template <typename Items>
Cluster::Stats SortOnlyStats(const Parts<Items>& parts, int p) {
  Cluster c(p);
  Sort(c, Dist<typename Items::Item>(parts), ByKey<Items>);
  return c.stats();
}

// got must be sort_only plus exactly one fix round receiving `fix`.
void ExpectSortPlusFixRound(const Cluster::Stats& got,
                            const Cluster::Stats& sort_only,
                            const std::vector<std::int64_t>& fix) {
  std::int64_t fix_max = 0;
  std::int64_t fix_total = 0;
  for (std::int64_t load : fix) {
    fix_max = std::max(fix_max, load);
    fix_total += load;
  }
  EXPECT_EQ(got.rounds, sort_only.rounds + 1);
  EXPECT_EQ(got.total_comm, sort_only.total_comm + fix_total);
  EXPECT_EQ(got.max_load, std::max(sort_only.max_load, fix_max));
  EXPECT_EQ(got.critical_path, sort_only.critical_path + fix_max);
}

void ExpectStatsEq(const Cluster::Stats& a, const Cluster::Stats& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.max_load, b.max_load);
  EXPECT_EQ(a.total_comm, b.total_comm);
  EXPECT_EQ(a.critical_path, b.critical_path);
}

template <typename Items>
void ExpectShapeMatchesOracleAndThreads(const Parts<Items>& input, int p) {
  ThreadOverrideGuard guard;
  const ShapeTrace<Items> seq = RunShape<Items>(input, p, 1);
  const ShapeTrace<Items> par = RunShape<Items>(input, p, 4);
  SetParallelForThreads(0);
  EXPECT_EQ(par.grouped, seq.grouped) << "grouped output varies with threads";
  EXPECT_EQ(par.reduced, seq.reduced) << "reduced output varies with threads";
  ExpectStatsEq(par.grouped_stats, seq.grouped_stats);
  ExpectStatsEq(par.reduced_stats, seq.reduced_stats);
  const FixOracle<Items> oracle = ComputeFixOracle<Items>(input, p);
  EXPECT_EQ(seq.grouped, oracle.grouped);
  EXPECT_EQ(seq.reduced, oracle.reduced);
  ExpectSortPlusFixRound(seq.grouped_stats, SortOnlyStats<Items>(input, p),
                         oracle.grouped_received);
  ExpectSortPlusFixRound(seq.reduced_stats,
                         SortOnlyStats<Items>(oracle.pre_parts, p),
                         oracle.reduced_received);
}

TEST(FixRoundShapesTest, KeyRunsSpanningManyParts) {
  // 3 keys over 240 items on p=8 (chunk 30): every run covers >2 parts.
  Rng rng(21);
  std::vector<KV> items;
  for (int i = 0; i < 240; ++i) items.emplace_back(rng.Uniform(0, 2), i);
  auto in = ScatterEvenly(std::move(items), 8);
  ExpectShapeMatchesOracleAndThreads<KVItems>(in.parts(), 8);
}

TEST(FixRoundShapesTest, MostlyEmptyLeadingInputParts) {
  // Input parts 0..5 empty; a dominant smallest key re-empties most
  // leading output parts after the fix (the shape whose per-item backward
  // walk used to be O(N*p)).
  std::vector<std::vector<KV>> input(8);
  for (int i = 0; i < 150; ++i) input[6].emplace_back(1, i);
  for (int i = 0; i < 30; ++i) input[7].emplace_back(2 + i % 5, 1000 + i);
  ExpectShapeMatchesOracleAndThreads<KVItems>(input, 8);
}

TEST(FixRoundShapesTest, AllOneKeyCollapsesToOnePart) {
  std::vector<KV> items;
  for (int i = 0; i < 64; ++i) items.emplace_back(7, i);
  auto in = ScatterEvenly(std::move(items), 8);
  ExpectShapeMatchesOracleAndThreads<KVItems>(in.parts(), 8);
}

TEST(FixRoundShapesTest, MoreServersThanInputParts) {
  // 4 input parts sorted onto 16 servers.
  Rng rng(31);
  std::vector<KV> items;
  for (int i = 0; i < 400; ++i) items.emplace_back(rng.Uniform(0, 9), i);
  auto in = ScatterEvenly(std::move(items), 4);
  ExpectShapeMatchesOracleAndThreads<KVItems>(in.parts(), 16);
}

TEST(FixRoundShapesTest, FewerServersThanInputParts) {
  // 8 input parts sorted onto 3 servers.
  Rng rng(33);
  std::vector<KV> items;
  for (int i = 0; i < 300; ++i) items.emplace_back(rng.Uniform(0, 5), i);
  auto in = ScatterEvenly(std::move(items), 8);
  ExpectShapeMatchesOracleAndThreads<KVItems>(in.parts(), 3);
}

// --- Row-keyed fix-round shapes ---------------------------------------------
//
// Key k is a row led by k; odd keys are wider than Row::kInlineCapacity, so
// their moves hand over heap storage, while even keys move inline. Key k
// has copies[k] copies, copy c on input part (k + c) mod num_input_parts
// with weight 10k + c + 1, so no key repeats within an input part and the
// pre-aggregated order has the same run shape as the raw one.

Row ShapeRow(int k) {
  const int width = k % 2 == 1 ? Row::kInlineCapacity + 2 : 2;
  Row row;
  row.PushBack(k);
  for (int i = 1; i < width; ++i) row.PushBack(i);
  return row;
}

Parts<RowItems> RowShape(const std::vector<int>& copies,
                         int num_input_parts) {
  Parts<RowItems> input(static_cast<size_t>(num_input_parts));
  for (int k = 0; k < static_cast<int>(copies.size()); ++k) {
    for (int c = 0; c < copies[static_cast<size_t>(k)]; ++c) {
      input[static_cast<size_t>((k + c) % num_input_parts)].push_back(
          RowTuple{ShapeRow(k), 10 * k + c + 1});
    }
  }
  return input;
}

TEST(FixRoundShapesTest, RowRunsBeginningOnTheLastItemOfAChunk) {
  // 16 items on p = 4 (chunk 4): keys 3, 5 and 8 begin at positions 3, 7
  // and 11, the last item of chunks 0, 1 and 2, and run into the next.
  ExpectShapeMatchesOracleAndThreads<RowItems>(
      RowShape({1, 1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 1}, 4), 4);
}

TEST(FixRoundShapesTest, RowRunsSpanningThreeOrMoreChunks) {
  // 24 items on p = 4 (chunk 6): key 5 covers positions 5..12, so it
  // spans chunks 0, 1 and 2.
  ExpectShapeMatchesOracleAndThreads<RowItems>(
      RowShape({1, 1, 1, 1, 1, 8, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 8), 4);
  // 8 items (chunk 2): key 1 covers positions 1..7, all four chunks.
  ExpectShapeMatchesOracleAndThreads<RowItems>(RowShape({1, 7}, 8), 4);
}

TEST(FixRoundShapesTest, RowShapesWithEmptyInputParts) {
  // Runs of up to three copies, with empty input parts before, between
  // and after the populated ones.
  Parts<RowItems> populated = RowShape({2, 3, 1, 3, 2, 1, 3}, 3);
  Parts<RowItems> input(7);
  input[1] = populated[0];
  input[4] = populated[1];
  input[5] = populated[2];
  ExpectShapeMatchesOracleAndThreads<RowItems>(input, 4);
  // Every input part empty.
  ExpectShapeMatchesOracleAndThreads<RowItems>(Parts<RowItems>(5), 4);
  // Fewer items than servers (chunk 1): key 1 spans chunks 1 and 2, and
  // chunk 3 is empty.
  ExpectShapeMatchesOracleAndThreads<RowItems>(RowShape({1, 2}, 2), 4);
}

}  // namespace
}  // namespace mpc
}  // namespace parjoin
