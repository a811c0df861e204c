// Star-like queries (paper §6): n line-query "arms" T_1..T_n sharing one
// non-output attribute B; arm endpoints A_i are the output attributes.
// Load O((N*N')^{1/3}*OUT^{1/2}/p^{2/3} + N'^{2/3}*OUT^{1/3}/p^{2/3}
//        + N*OUT^{2/3}/p + (N+N'+OUT)/p) (Lemma 7); the building block of
// the §7 tree algorithm.
//
// Like the star algorithm, it is oblivious to OUT. Per value b of B, the
// arms are ordered by their (KMV-estimated) branching d_i(b) = #distinct
// A_i values reachable from b; the permutation φ_b plus the predicate
// Π_{i<n} d_φ(i)(b) <= d_φ(n)(b) split dom(B) into "small" and "large"
// classes (2·n! subqueries):
//   Q_small: the n-1 low-branching arms are shrunk (Yannakakis folds) and
//     joined into one combined-attribute relation R(A_small, B); with the
//     remaining arm this is a LINE query (§4).
//   Q_large: all arms are shrunk; the index split I = {φ(n), φ(n-3), ...}
//     (Lemma 11) balances the two sides, whose join sizes are then
//     <= N*OUT^{2/3}; after uniformizing by the degree of b (log groups,
//     Step 3.3) each group is one output-sensitive MATRIX MULTIPLICATION.

#ifndef PARJOIN_ALGORITHMS_STARLIKE_QUERY_H_
#define PARJOIN_ALGORITHMS_STARLIKE_QUERY_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/algorithms/line_query.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/star_query.h"
#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/sorted_view.h"
#include "parjoin/query/dangling.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/attr_combiner.h"
#include "parjoin/relation/ops.h"
#include "parjoin/sketch/out_estimate.h"

namespace parjoin {

// Computes a star-like query (kStarLike). Stars, lines, and matrix
// multiplications are dispatched to their dedicated algorithms.
template <SemiringC S>
DistRelation<S> StarLikeAggregate(mpc::Cluster& cluster,
                                  TreeInstance<S> instance) {
  instance.Validate();
  const QueryShape shape = instance.query.Classify();
  if (shape == QueryShape::kMatMul || shape == QueryShape::kLine) {
    return LineQueryAggregate(cluster, std::move(instance));
  }
  if (shape == QueryShape::kStar) {
    return StarQueryAggregate(cluster, std::move(instance));
  }
  CHECK(shape == QueryShape::kStarLike)
      << "unsupported shape " << QueryShapeName(shape) << " for "
      << instance.query.DebugString();

  const AttrId center = instance.query.HighDegreeAttrs()[0];
  const std::vector<AttrId> outputs = instance.query.output_attrs();
  const std::vector<JoinTree::Arm> arms = instance.query.Arms(center);
  const int n = static_cast<int>(arms.size());
  CHECK_LE(n, 6) << "star-like arity is a query constant; >6 unsupported";

  RemoveDangling(cluster, &instance);
  std::int64_t n_total = instance.TotalInputSize();
  if (n_total == 0) {
    DistRelation<S> empty;
    empty.schema = Schema(outputs);
    empty.data = mpc::Dist<Tuple<S>>(cluster.p());
    return empty;
  }

  // --- Step 1: per-arm branching estimates d_i(b). ---
  std::vector<std::unordered_map<Value, std::int64_t>> branching(
      static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& arm = arms[static_cast<size_t>(i)];
    if (arm.length() == 1) {
      // Exact degrees for single-relation arms.
      mpc::Dist<ValueCount> deg = DegreesByAttr(
          cluster, instance.relations[static_cast<size_t>(
                       arm.edge_indices[0])],
          center);
      deg.ForEach([&](const ValueCount& vc) {
        branching[static_cast<size_t>(i)][vc.value] = vc.count;
      });
      cluster.ChargeUniformRound((n_total + cluster.p() - 1) / cluster.p());
    } else {
      OutEstimate est =
          EstimateChainOut(cluster, instance.RelationsOf(arm.edge_indices),
                           arm.path, kFixedEstimateRepetitions);
      branching[static_cast<size_t>(i)] = std::move(est.per_source);
    }
  }

  // --- Per-b class: permutation x {small, large}. The class map is made
  // known cluster-wide (modeled-linear, like parallel packing). ---
  std::map<std::pair<std::vector<int>, bool>, int> class_ids;
  std::vector<std::pair<std::vector<int>, bool>> class_list;
  std::unordered_map<Value, int> class_of_b;
  // Sorted: dense class ids are assigned in encounter order, so the
  // numbering (and class_list order) must not depend on hash order.
  for (const auto& [b, d0] : SortedEntries(branching[0])) {
    std::vector<double> d(static_cast<size_t>(n), 0);
    bool complete = true;
    for (int i = 0; i < n; ++i) {
      auto it = branching[static_cast<size_t>(i)].find(b);
      if (it == branching[static_cast<size_t>(i)].end()) {
        complete = false;
        break;
      }
      d[static_cast<size_t>(i)] =
          std::max<double>(1.0, static_cast<double>(it->second));
    }
    if (!complete) continue;  // dangling remnant
    std::vector<int> order(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
    std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
      return d[static_cast<size_t>(x)] < d[static_cast<size_t>(y)];
    });
    double prefix = 1;
    for (int i = 0; i + 1 < n; ++i) {
      prefix *= d[static_cast<size_t>(order[static_cast<size_t>(i)])];
    }
    const bool small =
        prefix <= d[static_cast<size_t>(order[static_cast<size_t>(n) - 1])];
    auto [it, inserted] = class_ids.emplace(
        std::make_pair(order, small), static_cast<int>(class_ids.size()));
    if (inserted) class_list.push_back({order, small});
    class_of_b[b] = it->second;
  }
  cluster.ChargeUniformRound((n_total + cluster.p() - 1) / cluster.p());
  cluster.ChargeUniformRound((n_total + cluster.p() - 1) / cluster.p());

  // Fresh combined-attribute ids.
  AttrId max_attr = 0;
  for (AttrId a : instance.query.attrs()) max_attr = std::max(max_attr, a);
  const AttrId x_small = max_attr + 1;
  const AttrId x_i = max_attr + 2;
  const AttrId x_j = max_attr + 3;

  // Split every arm's B-relation by class (local; the class map is known
  // everywhere): by_class[i][cls] is arm i's first relation in class cls.
  const int num_classes = static_cast<int>(class_list.size());
  auto class_of = [&](Value b) {
    auto it = class_of_b.find(b);
    return it == class_of_b.end() ? -1 : it->second;
  };
  std::vector<std::vector<DistRelation<S>>> by_class;
  for (const auto& arm : arms) {
    const auto& rel = instance.relations[static_cast<size_t>(
        arm.edge_indices[0])];
    by_class.push_back(SplitByAttr(rel, rel.schema.IndexOf(center),
                                   num_classes, class_of));
  }

  std::vector<DistRelation<S>> results;

  mpc::ParallelRegion class_region(cluster);
  for (int cls = 0; cls < num_classes; ++cls) {
    class_region.NextBranch();
    const auto& [order, small] = class_list[static_cast<size_t>(cls)];

    // The class sub-instance: B-incident relations hold the class's b
    // values only. None is empty: a b gets a class only when it has a
    // branching estimate, and so a tuple, in every arm.
    TreeInstance<S> sub{instance.query, instance.relations};
    for (int i = 0; i < n; ++i) {
      sub.relations[static_cast<size_t>(
          arms[static_cast<size_t>(i)].edge_indices[0])] =
          std::move(by_class[static_cast<size_t>(i)][static_cast<size_t>(cls)]);
    }
    RemoveDangling(cluster, &sub);
    if (sub.relations[static_cast<size_t>(arms[0].edge_indices[0])]
            .TotalSize() == 0) {
      continue;
    }

    // The §6 shrink (Steps 2.1/3.1): fold an arm into R(B, A_i).
    auto shrink = [&](int arm_idx) {
      const auto& arm = arms[static_cast<size_t>(arm_idx)];
      return FoldPath(cluster, sub.RelationsOf(arm.edge_indices), arm.path);
    };

    if (small) {
      // --- Step 2: shrink arms φ(1..n-1), join them, reduce to a line
      // query with the remaining arm. ---
      const std::vector<int> small_side(order.begin(), order.end() - 1);
      DistRelation<S> acc = JoinFold<S>(cluster, small_side, shrink);
      if (acc.TotalSize() == 0) continue;
      std::vector<AttrId> small_attrs;
      for (int k : small_side) {
        small_attrs.push_back(arms[static_cast<size_t>(k)].endpoint());
      }
      CombinedRelation<S> combined =
          CombineAttrs(cluster, acc, small_attrs, x_small);

      const auto& last_arm =
          arms[static_cast<size_t>(order[static_cast<size_t>(n) - 1])];
      std::vector<QueryEdge> line_edges = {{x_small, center}};
      for (size_t k = 0; k < last_arm.length(); ++k) {
        line_edges.push_back({last_arm.path[k], last_arm.path[k + 1]});
      }
      std::vector<DistRelation<S>> line_rels =
          sub.RelationsOf(last_arm.edge_indices);
      line_rels.insert(line_rels.begin(), std::move(combined.binary));
      TreeInstance<S> line_instance{
          JoinTree(line_edges, {x_small, last_arm.endpoint()}),
          std::move(line_rels)};
      DistRelation<S> line_result =
          LineQueryAggregate(cluster, std::move(line_instance));
      if (line_result.TotalSize() == 0) continue;
      DistRelation<S> expanded =
          ExpandAttrs(cluster, line_result, combined.dictionary, x_small);
      results.push_back(ProjectLocal(expanded, outputs));
    } else {
      // --- Step 3: shrink all arms; split indices I = {φ(n), φ(n-3), ...}
      // (Lemma 11); join each side; uniformize by degree; per-group
      // output-sensitive matrix multiplications. ---
      std::vector<int> side_i, side_j;
      {
        std::vector<bool> in_i(static_cast<size_t>(n), false);
        for (int k = n - 1; k >= 0; k -= 3) in_i[static_cast<size_t>(k)] = true;
        for (int k = 0; k < n; ++k) {
          (in_i[static_cast<size_t>(k)] ? side_i : side_j)
              .push_back(order[static_cast<size_t>(k)]);
        }
      }
      if (side_j.empty()) {
        // n <= 1 cannot happen for star-like; guard regardless.
        side_j.push_back(side_i.back());
        side_i.pop_back();
      }
      DistRelation<S> rel_i = JoinFold<S>(cluster, side_i, shrink);
      DistRelation<S> rel_j = JoinFold<S>(cluster, side_j, shrink);
      if (rel_i.TotalSize() == 0 || rel_j.TotalSize() == 0) continue;

      std::vector<AttrId> attrs_i, attrs_j;
      for (int k : side_i) {
        attrs_i.push_back(arms[static_cast<size_t>(k)].endpoint());
      }
      for (int k : side_j) {
        attrs_j.push_back(arms[static_cast<size_t>(k)].endpoint());
      }
      CombinedRelation<S> comb_i = CombineAttrs(cluster, rel_i, attrs_i, x_i);
      CombinedRelation<S> comb_j = CombineAttrs(cluster, rel_j, attrs_j, x_j);

      // Step 3.3: uniformize by the degree of b in R(X_I, B): log groups.
      // Degrees and relations are co-partitioned by b (as-executed).
      const int p = cluster.p();
      mpc::Dist<ValueCount> deg_b =
          DegreesByAttr(cluster, comb_i.binary, center);
      mpc::Dist<ValueCount> deg_parted = mpc::Exchange(
          cluster, deg_b, p,
          [&](const ValueCount& vc) { return HashPart(vc.value, 0x10f2, p); });
      const int bi_pos = comb_i.binary.schema.IndexOf(center);
      const int bj_pos = comb_j.binary.schema.IndexOf(center);
      DistRelation<S> i_parted{
          comb_i.binary.schema,
          PartitionByColumn(cluster, comb_i.binary.data, bi_pos, 0x10f2)};
      DistRelation<S> j_parted{
          comb_j.binary.schema,
          PartitionByColumn(cluster, comb_j.binary.data, bj_pos, 0x10f2)};

      constexpr int kMaxLogGroups = 48;
      std::unordered_map<Value, int> group_of_b;
      deg_parted.ForEach([&](const ValueCount& vc) {
        int g = 0;
        while ((std::int64_t{1} << (g + 1)) <= vc.count &&
               g + 1 < kMaxLogGroups) {
          ++g;
        }
        group_of_b[vc.value] = g;
      });
      auto group_of = [&](Value b) {
        auto it = group_of_b.find(b);
        return it == group_of_b.end() ? -1 : it->second;
      };
      std::vector<DistRelation<S>> gi =
          SplitByAttr(std::move(i_parted), bi_pos, kMaxLogGroups, group_of);
      std::vector<DistRelation<S>> gj =
          SplitByAttr(std::move(j_parted), bj_pos, kMaxLogGroups, group_of);

      mpc::ParallelRegion loggroup_region(cluster);
      for (int g = 0; g < kMaxLogGroups; ++g) {
        loggroup_region.NextBranch();
        if (gi[static_cast<size_t>(g)].TotalSize() == 0 ||
            gj[static_cast<size_t>(g)].TotalSize() == 0) {
          continue;
        }
        MatMulOptions options;
        options.remove_dangling = true;  // groups may misalign across sides
        options.strategy = MatMulStrategy::kOutputSensitive;
        DistRelation<S> mm =
            MatMul(cluster, std::move(gi[static_cast<size_t>(g)]),
                   std::move(gj[static_cast<size_t>(g)]), options);
        if (mm.TotalSize() == 0) continue;
        DistRelation<S> expanded =
            ExpandAttrs(cluster, mm, comb_i.dictionary, x_i);
        expanded = ExpandAttrs(cluster, expanded, comb_j.dictionary, x_j);
        results.push_back(ProjectLocal(expanded, outputs));
      }
    }
  }

  return ReduceUnion(cluster, std::move(results), Schema(outputs));
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_STARLIKE_QUERY_H_
