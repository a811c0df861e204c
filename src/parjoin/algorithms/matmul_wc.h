// Worst-case optimal sparse matrix multiplication (paper §3.1):
// ∑_B R1(A,B) ⋈ R2(B,C) with load O((N1+N2)/p + sqrt(N1*N2/p)).
//
// With L = sqrt(N1*N2/p), values of A (resp. C) are heavy when their degree
// reaches L. The query splits into four disjoint subqueries:
//   heavy-heavy: each (a, c) pair gets ceil((d(a)+d(c))/L) virtual servers
//     sharing the B-range by hashing; partial sums are reduced globally.
//   heavy-light / light-heavy: each heavy value gets a server group that
//     receives its own tuples plus the entire light side, again hashed
//     by B; partial (a, c) results are reduced globally.
//   light-light: parallel-packing groups the light values of A (and of C)
//     into buckets of total degree <= L; the bucket grid computes its cell
//     subquery entirely locally — this is where the algorithm's locality
//     beats Yannakakis: the elementary products are aggregated where they
//     are produced, and the finished outputs are never shuffled.
//
// When N1/N2 is outside [1/p, p], the simple broadcast algorithm from the
// start of §3 runs instead (load O((N1+N2)/p)).

#ifndef PARJOIN_ALGORITHMS_MATMUL_WC_H_
#define PARJOIN_ALGORITHMS_MATMUL_WC_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "parjoin/common/checked_math.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/sorted_view.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"

namespace parjoin {

namespace internal_matmul {

// Resolved attribute roles of a matrix-multiplication input pair.
struct MatMulAttrs {
  AttrId a = -1, b = -1, c = -1;
  int a_pos = -1, b1_pos = -1;  // positions in r1
  int b2_pos = -1, c_pos = -1;  // positions in r2
};

template <SemiringC S>
MatMulAttrs ResolveMatMulAttrs(const DistRelation<S>& r1,
                               const DistRelation<S>& r2) {
  const std::vector<AttrId> common = r1.schema.CommonAttrs(r2.schema);
  CHECK_EQ(common.size(), 1u) << "matmul inputs must share exactly one attr";
  MatMulAttrs m;
  m.b = common[0];
  CHECK_EQ(r1.schema.size(), 2);
  CHECK_EQ(r2.schema.size(), 2);
  m.a = r1.schema.attr(0) == m.b ? r1.schema.attr(1) : r1.schema.attr(0);
  m.c = r2.schema.attr(0) == m.b ? r2.schema.attr(1) : r2.schema.attr(0);
  m.a_pos = r1.schema.IndexOf(m.a);
  m.b1_pos = r1.schema.IndexOf(m.b);
  m.b2_pos = r2.schema.IndexOf(m.b);
  m.c_pos = r2.schema.IndexOf(m.c);
  return m;
}

// Locally joins co-located R1/R2 fragments on B and ⊕-aggregates by (a, c),
// appending the aggregated rows (schema (A, C)) to *out.
template <SemiringC S>
void LocalJoinAggregateAC(const MatMulAttrs& m,
                          const std::vector<Tuple<S>>& r1_part,
                          const std::vector<Tuple<S>>& r2_part,
                          std::vector<Tuple<S>>* out) {
  if (r1_part.empty() || r2_part.empty()) return;
  std::unordered_map<Value, std::vector<const Tuple<S>*>> by_b;
  by_b.reserve(r2_part.size());
  for (const auto& t : r2_part) by_b[t.row[m.b2_pos]].push_back(&t);
  std::unordered_map<Row, typename S::ValueType, RowHash> agg;
  for (const auto& t1 : r1_part) {
    auto it = by_b.find(t1.row[m.b1_pos]);
    if (it == by_b.end()) continue;
    for (const Tuple<S>* t2 : it->second) {
      Row key{t1.row[m.a_pos], t2->row[m.c_pos]};
      const auto w = S::Times(t1.w, t2->w);
      auto [slot, inserted] = agg.emplace(std::move(key), w);
      if (!inserted) slot->second = S::Plus(slot->second, w);
    }
  }
  // Emit in row order: agg's iteration order is hash-table state, and these
  // rows feed final output parts (grid cells keep them in place, and the
  // broadcast path emits directly).
  out->reserve(out->size() + agg.size());
  for (auto& [row, w] : SortedEntries(agg)) {
    out->push_back(Tuple<S>{std::move(row), w});
  }
}

// A group of consecutive virtual servers [base, base + size).
struct Group {
  int base = 0;
  int size = 1;
};

// Hands out consecutive virtual-server groups; a group for `work` tuples
// gets ceil(work / load) servers, at least one.
struct VirtualServers {
  std::int64_t load = 1;
  int count = 0;  // servers handed out so far

  Group Take(int size) {
    Group g{count, size};
    count += size;
    return g;
  }
  Group Allocate(std::int64_t work) {
    return Take(std::max<int>(1, static_cast<int>((work + load - 1) / load)));
  }
};

// Hashes a B-value to one server of a group. `seed` is one cluster RNG
// draw per algorithm run.
struct BShard {
  std::uint64_t seed = 0;

  int operator()(Value b, const Group& g) const {
    return g.base + HashPart(b, seed, g.size);
  }
};

// The shared last step of both algorithms: every virtual server v joins
// its routed R1/R2 fragments locally. When final_slot(v) >= 0, v holds a
// whole output cell, so its rows are final and stay in place as part
// p + final_slot(v); every other server's partial sums are ⊕-reduced into
// parts [0, p). The result has p + num_final parts.
template <SemiringC S, typename FinalSlot>
DistRelation<S> JoinCellsAndReduce(mpc::Cluster& cluster, const MatMulAttrs& m,
                                   const mpc::Dist<Tuple<S>>& r1_routed,
                                   const mpc::Dist<Tuple<S>>& r2_routed,
                                   int num_final, FinalSlot final_slot) {
  const int p = cluster.p();
  const int num_virtual = r1_routed.num_parts();
  DistRelation<S> out;
  out.schema = Schema{m.a, m.c};
  out.data = mpc::Dist<Tuple<S>>(p + num_final);
  mpc::Dist<Tuple<S>> partials(num_virtual);
  ParallelFor(num_virtual, [&](int v) {
    const int slot = final_slot(v);
    std::vector<Tuple<S>>* sink =
        slot >= 0 ? &out.data.part(p + slot) : &partials.part(v);
    LocalJoinAggregateAC(m, r1_routed.part(v), r2_routed.part(v), sink);
  });
  mpc::Dist<Tuple<S>> reduced = ReduceByRow(cluster, std::move(partials));
  for (int s = 0; s < p; ++s) out.data.part(s) = std::move(reduced.part(s));
  return out;
}

// The simple algorithm for very unbalanced inputs (N_small/N_big < 1/p):
// sort the big side grouped by its output attribute, broadcast the small
// side, compute locally; outputs are disjoint across servers.
// `small_is_r1` says which side is being broadcast.
template <SemiringC S>
DistRelation<S> MatMulBroadcastSmall(mpc::Cluster& cluster,
                                     const MatMulAttrs& m,
                                     const DistRelation<S>& r1,
                                     const DistRelation<S>& r2,
                                     bool small_is_r1) {
  const DistRelation<S>& big = small_is_r1 ? r2 : r1;
  const DistRelation<S>& small = small_is_r1 ? r1 : r2;
  const int group_pos = small_is_r1 ? m.c_pos : m.a_pos;

  mpc::Dist<Tuple<S>> big_sorted = mpc::SortGroupedByKey(
      cluster, big.data,
      [&](const Tuple<S>& t) { return t.row[group_pos]; });
  mpc::Dist<Tuple<S>> small_everywhere = mpc::Broadcast(cluster, small.data);

  DistRelation<S> out;
  out.schema = Schema{m.a, m.c};
  out.data = mpc::Dist<Tuple<S>>(big_sorted.num_parts());
  for (int s = 0; s < big_sorted.num_parts(); ++s) {
    const auto& r1_part =
        small_is_r1 ? small_everywhere.part(std::min(s, cluster.p() - 1))
                    : big_sorted.part(s);
    const auto& r2_part = small_is_r1
                              ? big_sorted.part(s)
                              : small_everywhere.part(std::min(
                                    s, cluster.p() - 1));
    LocalJoinAggregateAC(m, r1_part, r2_part, &out.data.part(s));
  }
  return out;
}

}  // namespace internal_matmul

// §3.1 worst-case optimal algorithm. Preconditions: dangling tuples
// removed (use RemoveDangling or the Semijoin pair; MatMul() in matmul.h
// handles this), N1 >= 1, N2 >= 1.
template <SemiringC S>
DistRelation<S> MatMulWorstCase(mpc::Cluster& cluster,
                                const DistRelation<S>& r1,
                                const DistRelation<S>& r2) {
  using internal_matmul::MatMulAttrs;
  const MatMulAttrs m = internal_matmul::ResolveMatMulAttrs(r1, r2);
  const int p = cluster.p();
  const std::int64_t n1 = r1.TotalSize();
  const std::int64_t n2 = r2.TotalSize();

  DistRelation<S> empty;
  empty.schema = Schema{m.a, m.c};
  empty.data = mpc::Dist<Tuple<S>>(p);
  if (n1 == 0 || n2 == 0) return empty;

  // Very unbalanced sizes: broadcast the small side (§3 opening). The
  // products are saturating: on inputs near 2^63 a wrapped n*p would flip
  // the comparison and route the whole big side through the wrong plan.
  if (SaturatingMul(n1, p) < n2) {
    return internal_matmul::MatMulBroadcastSmall(cluster, m, r1, r2, true);
  }
  if (SaturatingMul(n2, p) < n1) {
    return internal_matmul::MatMulBroadcastSmall(cluster, m, r1, r2, false);
  }

  const std::int64_t L = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(plan::MatMulWorstCaseTerm(n1, n2, p))));

  // --- Step 1: degree statistics and heavy/light classification. ---
  mpc::Dist<ValueCount> deg_a = DegreesByAttr(cluster, r1, m.a);
  mpc::Dist<ValueCount> deg_c = DegreesByAttr(cluster, r2, m.c);
  const std::unordered_map<Value, std::int64_t> heavy_a =
      CollectStatsAtLeast(cluster, deg_a, L);
  const std::unordered_map<Value, std::int64_t> heavy_c =
      CollectStatsAtLeast(cluster, deg_c, L);
  // Virtual-server allocation iterates the heavy values; materialize
  // sorted views so the group layout is a function of the data, not of
  // the hash table's iteration order.
  const std::vector<std::pair<Value, std::int64_t>> heavy_a_sorted =
      SortedEntries(heavy_a);
  const std::vector<std::pair<Value, std::int64_t>> heavy_c_sorted =
      SortedEntries(heavy_c);
  const int na = static_cast<int>(heavy_a_sorted.size());
  const int nc = static_cast<int>(heavy_c_sorted.size());
  std::unordered_map<Value, int> a_rank;
  std::unordered_map<Value, int> c_rank;
  a_rank.reserve(heavy_a_sorted.size());
  c_rank.reserve(heavy_c_sorted.size());
  for (int i = 0; i < na; ++i) {
    a_rank.emplace(heavy_a_sorted[static_cast<size_t>(i)].first, i);
  }
  for (int j = 0; j < nc; ++j) {
    c_rank.emplace(heavy_c_sorted[static_cast<size_t>(j)].first, j);
  }

  // Light-side sizes (a tiny distributed count; charged as one unit round).
  std::int64_t n1_light = 0, n2_light = 0;
  r1.data.ForEach([&](const Tuple<S>& t) {
    if (heavy_a.find(t.row[m.a_pos]) == heavy_a.end()) ++n1_light;
  });
  r2.data.ForEach([&](const Tuple<S>& t) {
    if (heavy_c.find(t.row[m.c_pos]) == heavy_c.end()) ++n2_light;
  });
  cluster.ChargeUniformRound(1);

  // --- Virtual-server allocation. ---
  using internal_matmul::Group;
  internal_matmul::VirtualServers servers{L};

  // Heavy-heavy: group per (a, c) pair, laid out in sorted (a, c) order;
  // hh[a_rank][c_rank] is the pair's group.
  std::vector<std::vector<Group>> hh(
      static_cast<size_t>(na), std::vector<Group>(static_cast<size_t>(nc)));
  for (int i = 0; i < na; ++i) {
    for (int j = 0; j < nc; ++j) {
      hh[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          servers.Allocate(heavy_a_sorted[static_cast<size_t>(i)].second +
                           heavy_c_sorted[static_cast<size_t>(j)].second);
    }
  }
  // Heavy-light: group per heavy a (receives R1(a,·) and all light R2).
  std::vector<Group> hl;
  hl.reserve(heavy_a_sorted.size());
  for (const auto& [a, da] : heavy_a_sorted) {
    hl.push_back(servers.Allocate(da + n2_light));
  }
  // Light-heavy: group per heavy c.
  std::vector<Group> lh;
  lh.reserve(heavy_c_sorted.size());
  for (const auto& [c, dc] : heavy_c_sorted) {
    lh.push_back(servers.Allocate(dc + n1_light));
  }

  // Light-light: pack light values into buckets of total degree <= L.
  auto pack_side = [&](const mpc::Dist<ValueCount>& degrees,
                       const std::unordered_map<Value, std::int64_t>& heavy) {
    std::vector<mpc::PackedItem> items;
    degrees.ForEach([&](const ValueCount& vc) {
      if (heavy.find(vc.value) != heavy.end()) return;
      items.push_back(
          {vc.value, std::min(1.0, static_cast<double>(vc.count) / L)});
    });
    return mpc::ParallelPacking(cluster, std::move(items));
  };
  const mpc::Packing pack_a = pack_side(deg_a, heavy_a);
  const mpc::Packing pack_c = pack_side(deg_c, heavy_c);
  const int k1 = std::max(1, pack_a.groups);
  const int k2 = std::max(1, pack_c.groups);
  const Group grid = servers.Take(k1 * k2);
  const int num_virtual = servers.count;
  // The paper guarantees sum of allocations = O(p); surface violations.
  if (num_virtual > 64 * p + 64) {
    LOG(WARNING) << "matmul_wc allocated " << num_virtual
                 << " virtual servers for p=" << p;
  }

  // --- One replicated exchange per relation implements steps 2-4. ---
  const internal_matmul::BShard b_shard{cluster.rng().Next()};

  // Route lambdas run concurrently across source parts (Exchange's
  // contract); lookups use find()/at() — never operator[], whose
  // insert-if-absent would be a data race on the shared maps.
  auto r1_routed = mpc::ExchangeMulti(
      cluster, r1.data, num_virtual,
      [&](const Tuple<S>& t, std::vector<int>* dests) {
        const Value a = t.row[m.a_pos];
        const Value b = t.row[m.b1_pos];
        const auto ha = a_rank.find(a);
        if (ha != a_rank.end()) {
          const size_t ai = static_cast<size_t>(ha->second);
          for (const Group& g : hh[ai]) dests->push_back(b_shard(b, g));
          dests->push_back(b_shard(b, hl[ai]));
        } else {
          for (const Group& g : lh) dests->push_back(b_shard(b, g));
          const int i = pack_a.group_of.at(a);
          for (int j = 0; j < k2; ++j) {
            dests->push_back(grid.base + i * k2 + j);
          }
        }
      });
  auto r2_routed = mpc::ExchangeMulti(
      cluster, r2.data, num_virtual,
      [&](const Tuple<S>& t, std::vector<int>* dests) {
        const Value c = t.row[m.c_pos];
        const Value b = t.row[m.b2_pos];
        const auto hc = c_rank.find(c);
        if (hc != c_rank.end()) {
          const size_t cj = static_cast<size_t>(hc->second);
          for (const auto& row_groups : hh) {
            dests->push_back(b_shard(b, row_groups[cj]));
          }
          dests->push_back(b_shard(b, lh[cj]));
        } else {
          for (const Group& g : hl) dests->push_back(b_shard(b, g));
          const int j = pack_c.group_of.at(c);
          for (int i = 0; i < k1; ++i) {
            dests->push_back(grid.base + i * k2 + j);
          }
        }
      });

  // --- Local computation. ---
  // Light-light cells produce final, pairwise-disjoint outputs (kept in
  // place, never shuffled). All other regions produce partial sums that
  // one global reduce-by-key combines (O(p*L) partials => load O(L)).
  return internal_matmul::JoinCellsAndReduce(
      cluster, m, r1_routed, r2_routed, grid.size,
      [&](int v) { return v >= grid.base ? v - grid.base : -1; });
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_MATMUL_WC_H_
