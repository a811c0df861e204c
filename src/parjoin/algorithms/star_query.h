// Star queries (paper §5):
//   ∑_B R1(A1,B) ⋈ R2(A2,B) ⋈ ... ⋈ Rn(An,B)
// with load O((N*OUT/p)^{2/3} + N*sqrt(OUT)/p + (N+OUT)/p) (Theorem 5).
//
// The algorithm is oblivious to OUT (OUT appears only in the analysis —
// computing it for star queries is open). For every value b of the join
// attribute, the arms are ordered by degree d_1(b) <= ... <= d_n(b); this
// permutation φ_b partitions dom(B) into at most n! classes B_φ. Within a
// class, the odd-indexed arms and the even-indexed arms are each joined
// into one relation (Lemmas 5/6 bound both by N*sqrt(OUT)), the arm
// attributes are combined, and the subquery becomes one output-sensitive
// matrix multiplication. A final reduce-by-key merges the n! subqueries.

#ifndef PARJOIN_ALGORITHMS_STAR_QUERY_H_
#define PARJOIN_ALGORITHMS_STAR_QUERY_H_

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/sorted_view.h"
#include "parjoin/query/dangling.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/attr_combiner.h"
#include "parjoin/relation/ops.h"

namespace parjoin {

// Computes a star query. The instance must classify as kStar (or kMatMul
// for two arms, handled by dispatch).
template <SemiringC S>
DistRelation<S> StarQueryAggregate(mpc::Cluster& cluster,
                                   TreeInstance<S> instance) {
  instance.Validate();
  AttrId center = -1;
  CHECK(instance.query.IsStarShaped(&center)) << "not a star query";
  const int n = instance.query.num_edges();
  CHECK_LE(n, 6) << "star arity is a query constant; >6 unsupported";
  const std::vector<AttrId> outputs = instance.query.output_attrs();

  if (n == 1) {
    return AggregateByAttrs(cluster, instance.relations[0], outputs);
  }
  RemoveDangling(cluster, &instance);
  if (n == 2) {
    MatMulOptions options;
    options.remove_dangling = false;
    DistRelation<S> mm = MatMul(cluster, std::move(instance.relations[0]),
                                std::move(instance.relations[1]), options);
    return ProjectLocal(mm, outputs);
  }

  const int p = cluster.p();
  // Arm attribute of relation i.
  std::vector<AttrId> arm(static_cast<size_t>(n));
  std::vector<int> b_pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    arm[static_cast<size_t>(i)] = instance.query.edge(i).Other(center);
    b_pos[static_cast<size_t>(i)] =
        instance.relations[static_cast<size_t>(i)].schema.IndexOf(center);
  }

  // --- Step 1: co-partition everything by B; per-part degree vectors give
  // every b its permutation class (as-executed exchanges). ---
  for (int i = 0; i < n; ++i) {
    auto& rel = instance.relations[static_cast<size_t>(i)];
    rel.data = PartitionByColumn(cluster, rel.data,
                                 b_pos[static_cast<size_t>(i)], 0x57a7);
  }

  // Permutation id per b (co-partitioning puts each b in exactly one
  // part); ids are dense via a global table (there are at most n! of
  // them; the table itself is O(1)).
  std::map<std::vector<int>, int> perm_ids;
  std::vector<std::vector<int>> perm_list;  // id -> degree-sorted arm order
  std::unordered_map<Value, int> perm_of_b;
  for (int s = 0; s < p; ++s) {
    std::unordered_map<Value, std::vector<std::int64_t>> degs;
    for (int i = 0; i < n; ++i) {
      for (const auto& t :
           instance.relations[static_cast<size_t>(i)].data.part(s)) {
        auto& d = degs[t.row[b_pos[static_cast<size_t>(i)]]];
        if (d.empty()) d.assign(static_cast<size_t>(n), 0);
        d[static_cast<size_t>(i)] += 1;
      }
    }
    // Sorted: dense permutation ids are assigned in encounter order, so
    // the id numbering must be a function of the data alone.
    for (const auto& [b, d] : SortedEntries(degs)) {
      bool complete = true;
      for (std::int64_t x : d) {
        if (x == 0) complete = false;  // dangling leftovers; skip
      }
      if (!complete) continue;
      std::vector<int> order(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
      std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
        return d[static_cast<size_t>(x)] < d[static_cast<size_t>(y)];
      });
      auto [it, inserted] =
          perm_ids.emplace(order, static_cast<int>(perm_ids.size()));
      if (inserted) perm_list.push_back(order);
      perm_of_b[b] = it->second;
    }
  }

  // Per-(relation, perm) fragments (local split, free): frag[i][q].
  const int num_perms = static_cast<int>(perm_list.size());
  auto perm_of = [&](Value b) {
    auto it = perm_of_b.find(b);
    return it == perm_of_b.end() ? -1 : it->second;
  };
  std::vector<std::vector<DistRelation<S>>> frag;
  for (int i = 0; i < n; ++i) {
    frag.push_back(
        SplitByAttr(std::move(instance.relations[static_cast<size_t>(i)]),
                    b_pos[static_cast<size_t>(i)], num_perms, perm_of));
  }

  // --- Step 2: per permutation class, reduce to matrix multiplication. ---
  AttrId max_attr = 0;
  for (AttrId a : instance.query.attrs()) max_attr = std::max(max_attr, a);
  const AttrId x_odd = max_attr + 1;
  const AttrId x_even = max_attr + 2;

  std::vector<DistRelation<S>> results;
  mpc::ParallelRegion perm_region(cluster);
  for (int q = 0; q < num_perms; ++q) {
    perm_region.NextBranch();
    const std::vector<int>& order = perm_list[static_cast<size_t>(q)];
    std::vector<int> odd_arms, even_arms;
    for (int i = 0; i < n; ++i) {
      // order[i] is the arm with the (i+1)-smallest degree; the paper's
      // odd/even indexing is 1-based over φ.
      ((i % 2 == 0) ? odd_arms : even_arms).push_back(order[static_cast<size_t>(i)]);
    }

    auto arm_frag = [&](int arm) -> const DistRelation<S>& {
      return frag[static_cast<size_t>(arm)][static_cast<size_t>(q)];
    };
    DistRelation<S> odd_rel = JoinFold<S>(cluster, odd_arms, arm_frag);
    DistRelation<S> even_rel = JoinFold<S>(cluster, even_arms, arm_frag);
    if (odd_rel.TotalSize() == 0 || even_rel.TotalSize() == 0) continue;

    std::vector<AttrId> odd_attrs, even_attrs;
    for (int i : odd_arms) odd_attrs.push_back(arm[static_cast<size_t>(i)]);
    for (int i : even_arms) even_attrs.push_back(arm[static_cast<size_t>(i)]);

    CombinedRelation<S> odd_c =
        CombineAttrs(cluster, odd_rel, odd_attrs, x_odd);
    CombinedRelation<S> even_c =
        CombineAttrs(cluster, even_rel, even_attrs, x_even);

    MatMulOptions options;
    options.remove_dangling = false;
    options.strategy = MatMulStrategy::kOutputSensitive;
    DistRelation<S> mm = MatMul(cluster, std::move(odd_c.binary),
                                std::move(even_c.binary), options);
    if (mm.TotalSize() == 0) continue;
    DistRelation<S> expanded =
        ExpandAttrs(cluster, mm, odd_c.dictionary, x_odd);
    expanded = ExpandAttrs(cluster, expanded, even_c.dictionary, x_even);
    results.push_back(ProjectLocal(expanded, outputs));
  }

  // --- Step 3: aggregate all subqueries. ---
  return ReduceUnion(cluster, std::move(results), Schema(outputs));
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_STAR_QUERY_H_
