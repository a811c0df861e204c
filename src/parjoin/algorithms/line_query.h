// Line queries (paper §4):
//   ∑_{A2..An} R1(A1,A2) ⋈ R2(A2,A3) ⋈ ... ⋈ Rn(An,An+1)
// with load O((N*OUT/p)^{2/3} + N*sqrt(OUT)/p + (N+OUT)/p) (Theorem 4).
//
// Recursive structure: after dangling removal and the §2.2 OUT estimate,
// values of A2 with degree >= sqrt(OUT) in R1 are heavy.
//   Q_heavy: every value reachable from a heavy A2 joins >= sqrt(OUT)
//     distinct A1 values (Lemma 4), so the right-to-left Yannakakis fold
//     R(A_i, A_{n+1}) stays below N*sqrt(OUT); the final step is one
//     matrix multiplication R1(A1, A2_heavy) x R(A2_heavy, A_{n+1}).
//   Q_light: R1 ⋈ R2 restricted to light A2 has at most N*sqrt(OUT)
//     results; aggregating A2 away gives R(A1, A3) and a line query that
//     is one relation shorter — recurse.
// The two result sets may overlap on (A1, A_{n+1}); a final reduce-by-key
// combines them.

#ifndef PARJOIN_ALGORITHMS_LINE_QUERY_H_
#define PARJOIN_ALGORITHMS_LINE_QUERY_H_

#include <cmath>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/common/logging.h"
#include "parjoin/query/dangling.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/ops.h"
#include "parjoin/sketch/out_estimate.h"

namespace parjoin {

namespace internal_line {

// Core recursion. `rels[i]` must contain attributes path[i], path[i+1];
// dangling tuples must have been removed. Output schema (path[0],
// path.back()).
template <SemiringC S>
DistRelation<S> LineQueryRec(mpc::Cluster& cluster,
                             std::vector<DistRelation<S>> rels,
                             std::vector<AttrId> path) {
  const int n = static_cast<int>(rels.size());
  CHECK_EQ(path.size(), rels.size() + 1);
  const std::vector<AttrId> outputs = {path.front(), path.back()};

  if (n == 1) {
    return AggregateByAttrs(cluster, rels[0], outputs);
  }
  if (n == 2) {
    MatMulOptions options;
    options.remove_dangling = false;  // invariant: already reduced
    return MatMul(cluster, std::move(rels[0]), std::move(rels[1]), options);
  }

  // §2.2 estimate of OUT (also supplies per-A1 counts, unused here).
  const OutEstimate est = EstimateChainOut(cluster, rels, path);
  const std::int64_t out_est = std::max<std::int64_t>(1, est.total);
  const std::int64_t heavy_threshold = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(std::sqrt(static_cast<double>(out_est)))));

  // Step 1: heavy A2 values by degree in R1.
  const int a2_pos0 = rels[0].schema.IndexOf(path[1]);
  const int a2_pos1 = rels[1].schema.IndexOf(path[1]);
  mpc::Dist<ValueCount> deg_a2 = DegreesByAttr(cluster, rels[0], path[1]);
  const std::unordered_map<Value, std::int64_t> heavy_a2 =
      CollectStatsAtLeast(cluster, deg_a2, heavy_threshold);

  // Split R1 and R2 locally (free): class 0 heavy, class 1 light.
  auto heavy_or_light = [&](Value a2) {
    return heavy_a2.count(a2) > 0 ? 0 : 1;
  };
  auto r1_split = SplitByAttr(std::move(rels[0]), a2_pos0, 2, heavy_or_light);
  auto r2_split = SplitByAttr(std::move(rels[1]), a2_pos1, 2, heavy_or_light);
  DistRelation<S>& r1_heavy = r1_split[0];
  DistRelation<S>& r1_light = r1_split[1];
  DistRelation<S>& r2_heavy = r2_split[0];
  DistRelation<S>& r2_light = r2_split[1];

  // Step 2: Q_heavy — fold right-to-left, then one matrix multiplication.
  DistRelation<S> heavy_result;
  heavy_result.schema = Schema{path.front(), path.back()};
  heavy_result.data = mpc::Dist<Tuple<S>>(cluster.p());
  if (r1_heavy.TotalSize() > 0 && r2_heavy.TotalSize() > 0) {
    // Re-reduce the heavy subquery (light-only continuations dangle now).
    std::vector<QueryEdge> edges;
    for (int i = 0; i < n; ++i) edges.push_back({path[static_cast<size_t>(i)],
                                                 path[static_cast<size_t>(i) + 1]});
    TreeInstance<S> heavy_instance{JoinTree(edges, outputs), {}};
    heavy_instance.relations.push_back(std::move(r1_heavy));
    heavy_instance.relations.push_back(std::move(r2_heavy));
    for (int i = 2; i < n; ++i) {
      heavy_instance.relations.push_back(rels[static_cast<size_t>(i)]);
    }
    RemoveDangling(cluster, &heavy_instance);

    if (heavy_instance.relations[0].TotalSize() > 0) {
      // (2.1) R(A_2, A_{n+1}) via Yannakakis steps.
      std::vector<DistRelation<S>> tail(
          std::make_move_iterator(heavy_instance.relations.begin() + 1),
          std::make_move_iterator(heavy_instance.relations.end()));
      DistRelation<S> fold = FoldPath(
          cluster, std::move(tail),
          std::vector<AttrId>(path.begin() + 1, path.end()));
      // (2.2) reduce to matrix multiplication (output-sensitive, §3.2).
      MatMulOptions options;
      options.remove_dangling = false;
      options.strategy = MatMulStrategy::kOutputSensitive;
      heavy_result = MatMul(cluster, std::move(heavy_instance.relations[0]),
                            std::move(fold), options);
    }
  }

  // Step 3: Q_light — shrink by one relation and recurse.
  DistRelation<S> light_result;
  light_result.schema = Schema{path.front(), path.back()};
  light_result.data = mpc::Dist<Tuple<S>>(cluster.p());
  if (r1_light.TotalSize() > 0 && r2_light.TotalSize() > 0) {
    DistRelation<S> r13 = JoinAggregate(cluster, r1_light, r2_light,
                                        {path[0], path[2]});
    std::vector<DistRelation<S>> rest;
    rest.push_back(std::move(r13));
    for (int i = 2; i < n; ++i) {
      rest.push_back(std::move(rels[static_cast<size_t>(i)]));
    }
    std::vector<AttrId> rest_path(path.begin() + 2, path.end());
    rest_path.insert(rest_path.begin(), path[0]);
    light_result =
        LineQueryRec(cluster, std::move(rest), std::move(rest_path));
  }

  // Step 4: the two subqueries may share (A1, A_{n+1}) groups. An empty
  // side leaves nothing to combine, so its reduce is skipped.
  if (heavy_result.TotalSize() == 0) return light_result;
  if (light_result.TotalSize() == 0) return heavy_result;
  const Schema schema = heavy_result.schema;
  std::vector<DistRelation<S>> both;
  both.push_back(std::move(heavy_result));
  both.push_back(std::move(light_result));
  return ReduceUnion(cluster, std::move(both), schema);
}

}  // namespace internal_line

// Entry point: computes a line query (IsPath with both endpoints output).
// Removes dangling tuples, orients the path, and runs the §4 recursion.
template <SemiringC S>
DistRelation<S> LineQueryAggregate(mpc::Cluster& cluster,
                                   TreeInstance<S> instance) {
  instance.Validate();
  std::vector<AttrId> path;
  CHECK(instance.query.IsPath(&path)) << "not a line query";
  CHECK_EQ(instance.query.output_attrs().size(), 2u);
  CHECK(instance.query.IsOutput(path.front()) &&
        instance.query.IsOutput(path.back()));

  RemoveDangling(cluster, &instance);

  // Align relations with consecutive path edges.
  std::vector<DistRelation<S>> rels;
  for (int e : instance.query.PathEdges(path)) {
    rels.push_back(std::move(instance.relations[static_cast<size_t>(e)]));
  }
  return internal_line::LineQueryRec(cluster, std::move(rels),
                                     std::move(path));
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_LINE_QUERY_H_
