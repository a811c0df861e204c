// Output-sensitive sparse matrix multiplication (paper §3.2):
// load O((N1+N2)/p + (N1*N2*OUT)^{1/3} / p^{2/3}).
//
// Structure (after dangling removal and §2.2 OUT estimation):
//   OUT <= N/p           LinearSparseMM: sort everything by B (grouped),
//                        aggregate locally, reduce-by-key the local results.
//   otherwise            L = (N1*N2*OUT/p^2)^{1/3} + N/p and:
//     step 2  heavy rows (OUT_a >= sqrt(N2*OUT*L/N1)) go through one
//             optimal two-way join + aggregation (their intermediate join
//             is small: each R2 tuple meets few heavy rows);
//     step 3  light rows are parallel-packed into groups A_i of total
//             OUT_a <= sqrt(N2*OUT*L/N1); per group, the output count of
//             every column c is estimated with the §2.2 KMV chain, and
//             heavy columns (>= L outputs in the group) get dedicated
//             B-sharded server groups;
//     step 4  the light columns of each group are parallel-packed into
//             buckets C_ij of <= L group-outputs; subquery (A_i, C_ij)
//             runs on ceil(|R_ij|/L) servers — on a single server its
//             outputs are final and never shuffled (the locality that
//             beats Yannakakis), otherwise its partial sums join the
//             global reduce.

#ifndef PARJOIN_ALGORITHMS_MATMUL_OS_H_
#define PARJOIN_ALGORITHMS_MATMUL_OS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "parjoin/algorithms/matmul_wc.h"
#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/sorted_view.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"
#include "parjoin/sketch/out_estimate.h"

namespace parjoin {

// LinearSparseMM (§3.2): correct for any input, linear load when
// OUT <= N/p (every B-degree is then < N/p, so the grouped sort balances).
template <SemiringC S>
DistRelation<S> LinearSparseMM(mpc::Cluster& cluster,
                               const DistRelation<S>& r1,
                               const DistRelation<S>& r2) {
  using internal_matmul::MatMulAttrs;
  const MatMulAttrs m = internal_matmul::ResolveMatMulAttrs(r1, r2);

  struct Tagged {
    Tuple<S> t;
    bool from_r1 = false;
  };
  mpc::Dist<Tagged> tagged(std::max(r1.data.num_parts(), r2.data.num_parts()));
  for (int s = 0; s < r1.data.num_parts(); ++s) {
    for (const auto& t : r1.data.part(s)) {
      tagged.part(s).push_back({t, true});
    }
  }
  for (int s = 0; s < r2.data.num_parts(); ++s) {
    for (const auto& t : r2.data.part(s)) {
      tagged.part(s).push_back({t, false});
    }
  }

  mpc::Dist<Tagged> by_b = mpc::SortGroupedByKey(
      cluster, std::move(tagged), [&](const Tagged& x) {
        return x.from_r1 ? x.t.row[m.b1_pos] : x.t.row[m.b2_pos];
      });

  mpc::Dist<Tuple<S>> partials(by_b.num_parts());
  for (int s = 0; s < by_b.num_parts(); ++s) {
    std::vector<Tuple<S>> r1_part, r2_part;
    for (const auto& x : by_b.part(s)) {
      (x.from_r1 ? r1_part : r2_part).push_back(x.t);
    }
    internal_matmul::LocalJoinAggregateAC(m, r1_part, r2_part,
                                          &partials.part(s));
  }

  DistRelation<S> out;
  out.schema = Schema{m.a, m.c};
  out.data = ReduceByRow(cluster, std::move(partials));
  return out;
}

// §3.2 output-sensitive algorithm. Preconditions: dangling tuples removed,
// N1, N2 >= 1. `est` is the §2.2 estimate for the chain A-B-C (recomputed
// when null).
template <SemiringC S>
DistRelation<S> MatMulOutputSensitive(mpc::Cluster& cluster,
                                      const DistRelation<S>& r1,
                                      const DistRelation<S>& r2,
                                      const OutEstimate* est = nullptr) {
  using internal_matmul::MatMulAttrs;
  const MatMulAttrs m = internal_matmul::ResolveMatMulAttrs(r1, r2);
  const int p = cluster.p();
  const std::int64_t n1 = r1.TotalSize();
  const std::int64_t n2 = r2.TotalSize();
  const std::int64_t n = n1 + n2;

  DistRelation<S> empty;
  empty.schema = Schema{m.a, m.c};
  empty.data = mpc::Dist<Tuple<S>>(p);
  if (n1 == 0 || n2 == 0) return empty;

  OutEstimate local_est;
  if (est == nullptr) {
    local_est = EstimateChainOut(cluster, std::vector<DistRelation<S>>{r1, r2},
                                 {m.a, m.b, m.c});
    est = &local_est;
  }
  const std::int64_t out_est = std::max<std::int64_t>(1, est->total);

  if (out_est <= std::max<std::int64_t>(1, n / p)) {
    return LinearSparseMM(cluster, r1, r2);
  }

  const std::int64_t L = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(
             plan::MatMulOutputSensitiveTerm(n1, n2, out_est, p))) +
             (n + p - 1) / p);
  const std::int64_t heavy_row_threshold = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::sqrt(
             static_cast<double>(n2) * static_cast<double>(out_est) *
             static_cast<double>(L) / static_cast<double>(n1)))));

  // --- Step 1: heavy rows by estimated OUT_a. ---
  // The heavy set is small (<= sqrt(OUT/L * N1/N2)); broadcast it.
  std::vector<Value> heavy_rows;
  for (const auto& [a, out_a] : SortedEntries(est->per_source)) {
    if (out_a >= heavy_row_threshold) heavy_rows.push_back(a);
  }
  cluster.ChargeUniformRound(static_cast<std::int64_t>(heavy_rows.size()));
  std::unordered_map<Value, bool> is_heavy_row;
  for (Value a : heavy_rows) is_heavy_row[a] = true;

  // Split R1 locally (free): class 0 heavy, class 1 light.
  auto heavy_or_light = [&](Value a) {
    return is_heavy_row.count(a) > 0 ? 0 : 1;
  };
  const auto r1_split = SplitByAttr(r1, m.a_pos, 2, heavy_or_light);
  const DistRelation<S>& r1_heavy = r1_split[0];
  const DistRelation<S>& r1_light = r1_split[1];

  // --- Step 2: heavy rows via one optimal join + aggregation. ---
  DistRelation<S> heavy_out = empty;
  if (r1_heavy.TotalSize() > 0) {
    DistRelation<S> joined = TwoWayJoin(cluster, r1_heavy, r2);
    heavy_out = AggregateByAttrs(cluster, joined, {m.a, m.c});
  }

  // --- Step 3a: parallel-pack light rows into groups A_i. ---
  std::vector<mpc::PackedItem> row_items;
  {
    std::unordered_map<Value, bool> seen;
    r1_light.data.ForEach([&](const Tuple<S>& t) {
      const Value a = t.row[m.a_pos];
      if (!seen.emplace(a, true).second) return;
      const double weight =
          std::min(1.0, std::max<double>(1.0, static_cast<double>(
                                                  est->ForValue(a))) /
                            static_cast<double>(heavy_row_threshold));
      row_items.push_back({a, weight});
    });
  }
  const mpc::Packing rows =
      mpc::ParallelPacking(cluster, std::move(row_items));
  const int k1 = std::max(rows.groups, 1);

  // Per-group R1 fragments (local split, free).
  auto group_of = [&](Value a) { return rows.group_of.at(a); };
  const auto r1_groups = SplitByAttr(r1_light, m.a_pos, k1, group_of);
  std::vector<std::int64_t> group_size(static_cast<size_t>(k1), 0);
  for (int i = 0; i < k1; ++i) {
    group_size[static_cast<size_t>(i)] =
        r1_groups[static_cast<size_t>(i)].TotalSize();
  }

  // R2 column degrees (bookkeeping for allocations; modeled-linear rounds,
  // same discipline as parallel packing).
  std::unordered_map<Value, std::int64_t> deg_c;
  r2.data.ForEach(
      [&](const Tuple<S>& t) { deg_c[t.row[m.c_pos]] += 1; });
  cluster.ChargeUniformRound((n2 + p - 1) / p);

  // --- Steps 3b/4a: per group, estimate per-column output counts, split
  // heavy columns, and pack light columns into buckets C_ij. ---
  using internal_matmul::Group;
  internal_matmul::VirtualServers servers{L};

  std::vector<std::unordered_map<Value, Group>> heavy_c(
      static_cast<size_t>(k1));
  // Heavy-column groups per A_i in sorted column order; the R1 route
  // lambda iterates this vector, never the unordered map.
  std::vector<std::vector<Group>> heavy_groups(static_cast<size_t>(k1));
  std::vector<std::unordered_map<Value, int>> bucket_of_c(
      static_cast<size_t>(k1));
  std::vector<std::vector<Group>> cells(static_cast<size_t>(k1));

  mpc::ParallelRegion group_region(cluster);
  for (int i = 0; i < k1; ++i) {
    group_region.NextBranch();
    const auto& r1_i = r1_groups[static_cast<size_t>(i)];
    if (group_size[static_cast<size_t>(i)] == 0) continue;
    // Estimate |π_A σ_{A∈A_i}R1 ⋈ R2(B,c)| per column c (§2.2 chain C-B-A).
    OutEstimate est_i = EstimateChainOut(
        cluster, std::vector<DistRelation<S>>{r2, r1_i}, {m.c, m.b, m.a},
        kFixedEstimateRepetitions);

    std::vector<mpc::PackedItem> col_items;
    // Sorted so virtual-server allocation order and the packing input are
    // functions of the data, not of hash-table iteration order.
    for (const auto& [c, cnt] : SortedEntries(est_i.per_source)) {
      if (cnt >= L) {
        const Group g =
            servers.Allocate(group_size[static_cast<size_t>(i)] + deg_c[c]);
        heavy_c[static_cast<size_t>(i)][c] = g;
        heavy_groups[static_cast<size_t>(i)].push_back(g);
      } else {
        col_items.push_back(
            {c, std::min(1.0, static_cast<double>(cnt) /
                                  static_cast<double>(L))});
      }
    }
    mpc::Packing cols = mpc::ParallelPacking(cluster, std::move(col_items));
    const int k2 = cols.groups;
    bucket_of_c[static_cast<size_t>(i)] = std::move(cols.group_of);
    std::vector<std::int64_t> bucket_r2_size(
        static_cast<size_t>(std::max(k2, 1)), 0);
    // parjoin-analyzer: order-independent(commutative int64 sums per bucket)
    for (const auto& [c, j] : bucket_of_c[static_cast<size_t>(i)]) {
      bucket_r2_size[static_cast<size_t>(j)] += deg_c[c];
    }
    for (int j = 0; j < k2; ++j) {
      cells[static_cast<size_t>(i)].push_back(
          servers.Allocate(group_size[static_cast<size_t>(i)] +
                           bucket_r2_size[static_cast<size_t>(j)]));
    }
  }
  const int num_virtual = std::max(servers.count, 1);

  // --- Steps 3c/4b: route and compute. ---
  const internal_matmul::BShard b_shard{cluster.rng().Next()};

  auto r1_routed = mpc::ExchangeMulti(
      cluster, r1_light.data, num_virtual,
      [&](const Tuple<S>& t, std::vector<int>* dests) {
        // Pure const lookups only: the route runs concurrently across
        // source parts (exchange.h contract).
        const Value b = t.row[m.b1_pos];
        const int i = rows.group_of.at(t.row[m.a_pos]);
        for (const Group& g : heavy_groups[static_cast<size_t>(i)]) {
          dests->push_back(b_shard(b, g));
        }
        for (const Group& g : cells[static_cast<size_t>(i)]) {
          dests->push_back(b_shard(b, g));
        }
      });
  auto r2_routed = mpc::ExchangeMulti(
      cluster, r2.data, num_virtual,
      [&](const Tuple<S>& t, std::vector<int>* dests) {
        const Value b = t.row[m.b2_pos];
        const Value c = t.row[m.c_pos];
        for (int i = 0; i < k1; ++i) {
          auto hit = heavy_c[static_cast<size_t>(i)].find(c);
          if (hit != heavy_c[static_cast<size_t>(i)].end()) {
            dests->push_back(b_shard(b, hit->second));
            continue;
          }
          auto bit = bucket_of_c[static_cast<size_t>(i)].find(c);
          if (bit == bucket_of_c[static_cast<size_t>(i)].end()) continue;
          dests->push_back(
              b_shard(b, cells[static_cast<size_t>(i)]
                              [static_cast<size_t>(bit->second)]));
        }
      });

  // Single-server cells keep their outputs in place; everything else emits
  // partials into one global reduce.
  std::vector<bool> is_final(static_cast<size_t>(num_virtual), false);
  for (int i = 0; i < k1; ++i) {
    for (const Group& g : cells[static_cast<size_t>(i)]) {
      if (g.size == 1) is_final[static_cast<size_t>(g.base)] = true;
    }
  }

  DistRelation<S> out = internal_matmul::JoinCellsAndReduce(
      cluster, m, r1_routed, r2_routed, num_virtual,
      [&](int v) { return is_final[static_cast<size_t>(v)] ? v : -1; });

  // Union with the heavy-row results (disjoint classes of a-values).
  for (int s = 0; s < heavy_out.data.num_parts(); ++s) {
    auto& dest = out.data.part(s % out.data.num_parts());
    for (auto& t : heavy_out.data.part(s)) dest.push_back(std::move(t));
  }
  return out;
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_MATMUL_OS_H_
