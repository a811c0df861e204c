// General tree join-aggregate queries with arbitrary output attributes
// (paper §7): load O(N*OUT^{2/3}/p + (N+OUT)/p) (Theorem 6).
//
// Pipeline (TreeQueryAggregate):
//   1. dangling removal + §7 preprocessing (ReduceInstance): afterwards
//      every leaf attribute is an output attribute;
//   2. twig decomposition: the query is split at every non-leaf output
//      attribute (Figure 2); each twig has exactly its leaves as outputs;
//   3. every twig is computed — single relations, matrix multiplications,
//      lines, stars and star-like twigs by their dedicated algorithms;
//      general twigs (>= 2 attributes in more than two relations) by the
//      recursive skeleton procedure below;
//   4. the twig results join into the final output with plain Yannakakis
//      (all attributes are outputs now — free-connex, load O(OUT/p)).
//
// General twigs (§7.1): V* = attributes in more than two relations. Each
// leaf B of the V*-spanning subtree anchors a star-like subtree T_B; the
// rest is the skeleton T_S. x(b) estimates the output combinations inside
// T_B reachable from b (product of per-arm KMV branching estimates);
// y(b) under-estimates the combinations outside T_B (Algorithm 1,
// EstimateOutTree: max-over-join, product-over-children propagation over
// the skeleton). b is heavy when x(b) > y(b). Splitting every skeleton
// leaf's domain into heavy/light yields 2^|S∩ȳ| subqueries; in each
// (Lemma 13) at most one leaf is heavy, so every light leaf's T_B can be
// folded into one combined-attribute relation R(B, X_B) (its size is
// bounded by N*sqrt(OUT): Lemma 15) and the query strictly shrinks —
// recursion ends at star-like/line shapes.

#ifndef PARJOIN_ALGORITHMS_TREE_QUERY_H_
#define PARJOIN_ALGORITHMS_TREE_QUERY_H_

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/algorithms/starlike_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/query/reduce.h"

namespace parjoin {

namespace internal_tree {

// The V*-structure of a general twig.
struct SkeletonInfo {
  std::vector<AttrId> vstar;  // attributes in > 2 relations
  struct LeafTb {
    AttrId b = -1;                // a leaf of the V*-spanning subtree
    std::vector<int> tb_edges;    // edges of the star-like subtree T_B
    // T_B's arms around b; edge_indices index the query's edges.
    std::vector<JoinTree::Arm> arms;
  };
  std::vector<LeafTb> leaf_tbs;
  std::vector<int> skeleton_edges;  // all edges not in any T_B
};

// Collects the edges reachable from `start_attr` without crossing
// `blocked_edge`.
inline std::vector<int> ReachableEdges(const JoinTree& q, AttrId start_attr,
                                       int blocked_edge) {
  std::vector<int> out;
  std::set<int> seen = {blocked_edge};
  std::vector<AttrId> frontier = {start_attr};
  std::set<AttrId> visited = {start_attr};
  while (!frontier.empty()) {
    AttrId a = frontier.back();
    frontier.pop_back();
    for (int e : q.IncidentEdges(a)) {
      if (!seen.insert(e).second) continue;
      out.push_back(e);
      const AttrId next = q.edge(e).Other(a);
      if (visited.insert(next).second) frontier.push_back(next);
    }
  }
  return out;
}

inline SkeletonInfo AnalyzeSkeleton(const JoinTree& q) {
  SkeletonInfo info;
  info.vstar = q.HighDegreeAttrs();
  CHECK_GE(info.vstar.size(), 2u) << "general twig needs >= 2 V* attrs";
  std::set<AttrId> vstar_set(info.vstar.begin(), info.vstar.end());

  std::set<int> tb_edge_set;
  for (AttrId b : info.vstar) {
    // Directions (incident edges) whose far side contains another V* attr.
    std::vector<int> vstar_dirs;
    for (int e : q.IncidentEdges(b)) {
      const std::vector<int> beyond =
          ReachableEdges(q, q.edge(e).Other(b), e);
      bool has_vstar = false;
      auto check_edge = [&](int ei) {
        for (AttrId a : {q.edge(ei).u, q.edge(ei).v}) {
          if (a != b && vstar_set.count(a) > 0) has_vstar = true;
        }
      };
      check_edge(e);
      for (int ei : beyond) check_edge(ei);
      if (has_vstar) vstar_dirs.push_back(e);
    }
    if (vstar_dirs.size() != 1) continue;  // not a leaf of T_{V*}
    SkeletonInfo::LeafTb leaf;
    leaf.b = b;
    for (int e : q.IncidentEdges(b)) {
      if (e == vstar_dirs[0]) continue;
      leaf.tb_edges.push_back(e);
      for (int ei : ReachableEdges(q, q.edge(e).Other(b), e)) {
        leaf.tb_edges.push_back(ei);
      }
    }
    std::sort(leaf.tb_edges.begin(), leaf.tb_edges.end());
    leaf.tb_edges.erase(
        std::unique(leaf.tb_edges.begin(), leaf.tb_edges.end()),
        leaf.tb_edges.end());
    leaf.arms = q.InducedSubquery(leaf.tb_edges, {b}).Arms(b);
    for (auto& arm : leaf.arms) {
      for (int& e : arm.edge_indices) {
        e = leaf.tb_edges[static_cast<size_t>(e)];
      }
    }
    for (int e : leaf.tb_edges) tb_edge_set.insert(e);
    info.leaf_tbs.push_back(std::move(leaf));
  }
  CHECK_GE(info.leaf_tbs.size(), 2u) << "a tree has >= 2 V*-leaves";
  for (int e = 0; e < q.num_edges(); ++e) {
    if (tb_edge_set.count(e) == 0) info.skeleton_edges.push_back(e);
  }
  return info;
}

// Per-value map of (under-)estimates, computed centrally with
// modeled-linear charging (the distributed realization is the chain of
// reduce-by-key passes of §2.2 / Algorithm 1).
using EstimateMap = std::unordered_map<Value, double>;

// x(b): estimated number of output combinations inside T_B that join b —
// the product of the per-arm §2.2 branching estimates.
template <SemiringC S>
EstimateMap EstimateX(mpc::Cluster& cluster, const TreeInstance<S>& instance,
                      const SkeletonInfo::LeafTb& leaf) {
  // T_B is star-like at leaf.b; estimate each arm independently.
  EstimateMap x;
  bool first = true;
  for (const auto& arm : leaf.arms) {
    OutEstimate est =
        EstimateChainOut(cluster, instance.RelationsOf(arm.edge_indices),
                         arm.path, kFixedEstimateRepetitions);
    if (first) {
      // parjoin-analyzer: order-independent(one map write per distinct key)
      for (const auto& [b, cnt] : est.per_source) {
        x[b] = static_cast<double>(cnt);
      }
      first = false;
    } else {
      EstimateMap next;
      // parjoin-analyzer: order-independent(one map write per distinct key)
      for (const auto& [b, cnt] : est.per_source) {
        auto it = x.find(b);
        if (it != x.end()) next[b] = it->second * static_cast<double>(cnt);
      }
      x = std::move(next);
    }
  }
  return x;
}

// Algorithm 1 (EstimateOutTree): propagates y-values over the skeleton
// rooted at `target`, bottom-up: a leaf C contributes y(c) = x(c)
// (x(a) = 1 for output leaves), an internal attribute multiplies, over its
// children C', the maximum y(c') among joining values. Per-edge passes
// are charged modeled-linear.
template <SemiringC S>
EstimateMap EstimateOutTree(
    mpc::Cluster& cluster, const TreeInstance<S>& instance,
    const SkeletonInfo& info,
    const std::unordered_map<AttrId, const EstimateMap*>& x_of_leaf,
    AttrId target) {
  std::vector<QueryEdge> sk_edges;
  for (int e : info.skeleton_edges) sk_edges.push_back(instance.query.edge(e));
  JoinTree skeleton(sk_edges, {});
  const auto order = skeleton.BottomUpOrder(target);

  // y per attribute; an entry missing means "no (non-dangling) value".
  std::unordered_map<AttrId, EstimateMap> y;
  auto leaf_y = [&](AttrId attr) {
    EstimateMap out;
    auto it = x_of_leaf.find(attr);
    if (it != x_of_leaf.end()) return *it->second;  // V*-leaf: y = x
    // Output leaf: x = 1 for every value it holds.
    for (int e : info.skeleton_edges) {
      const auto& rel = instance.relations[static_cast<size_t>(e)];
      const int pos = rel.schema.IndexOf(attr);
      if (pos < 0) continue;
      rel.data.ForEach([&](const Tuple<S>& t) { out[t.row[pos]] = 1.0; });
    }
    return out;
  };

  for (const auto& re : order) {
    const AttrId child = re.child_attr;
    if (y.find(child) == y.end() && skeleton.Degree(child) == 1) {
      y[child] = leaf_y(child);
    }
    // Propagate child -> parent over the original relation of this edge.
    const int orig_edge = info.skeleton_edges[static_cast<size_t>(
        re.edge_index)];
    const auto& rel = instance.relations[static_cast<size_t>(orig_edge)];
    const int c_pos = rel.schema.IndexOf(child);
    const int p_pos = rel.schema.IndexOf(re.parent_attr);
    CHECK_GE(c_pos, 0);
    CHECK_GE(p_pos, 0);
    cluster.ChargeUniformRound(
        (rel.TotalSize() + cluster.p() - 1) / cluster.p());

    EstimateMap z;  // per parent value: max over joining child values
    const EstimateMap& yc = y[child];
    rel.data.ForEach([&](const Tuple<S>& t) {
      auto it = yc.find(t.row[c_pos]);
      if (it == yc.end()) return;
      auto [slot, inserted] = z.emplace(t.row[p_pos], it->second);
      if (!inserted) slot->second = std::max(slot->second, it->second);
    });
    // Multiply into the parent (intersecting with earlier children).
    auto pit = y.find(re.parent_attr);
    if (pit == y.end()) {
      y[re.parent_attr] = std::move(z);
    } else {
      EstimateMap merged;
      // parjoin-analyzer: order-independent(one map write per distinct key)
      for (const auto& [v, val] : z) {
        auto old = pit->second.find(v);
        if (old != pit->second.end()) merged[v] = old->second * val;
      }
      pit->second = std::move(merged);
    }
  }
  return y[target];
}

}  // namespace internal_tree

template <SemiringC S>
DistRelation<S> TreeQueryAggregate(mpc::Cluster& cluster,
                                   TreeInstance<S> instance);

namespace internal_tree {

// Computes one twig (all leaves are outputs). Dispatches on shape; the
// general case runs the §7.1 skeleton recursion.
template <SemiringC S>
DistRelation<S> ComputeTwig(mpc::Cluster& cluster, TreeInstance<S> instance) {
  const std::vector<AttrId> outputs = instance.query.output_attrs();
  const QueryShape shape = instance.query.Classify();
  switch (shape) {
    case QueryShape::kSingleEdge:
      return AggregateByAttrs(cluster, instance.relations[0], outputs);
    case QueryShape::kMatMul:
    case QueryShape::kLine: {
      DistRelation<S> r = LineQueryAggregate(cluster, std::move(instance));
      return ProjectLocal(r, outputs);
    }
    case QueryShape::kStar:
    case QueryShape::kStarLike: {
      DistRelation<S> r = StarLikeAggregate(cluster, std::move(instance));
      return ProjectLocal(r, outputs);
    }
    case QueryShape::kFreeConnex: {
      // Prior work's case ([14] achieves the optimal bound; the baseline
      // Yannakakis is within the scope the paper assumes for it).
      DistRelation<S> r = YannakakisJoinAggregate(cluster, std::move(instance));
      return ProjectLocal(r, outputs);
    }
    case QueryShape::kTree:
      break;
  }

  // --- General twig: skeleton divide & conquer. ---
  RemoveDangling(cluster, &instance);
  DistRelation<S> empty;
  empty.schema = Schema(outputs);
  empty.data = mpc::Dist<Tuple<S>>(cluster.p());
  for (const auto& rel : instance.relations) {
    if (rel.TotalSize() == 0) return empty;
  }

  const SkeletonInfo info = AnalyzeSkeleton(instance.query);
  const int k = static_cast<int>(info.leaf_tbs.size());
  CHECK_LE(k, 10) << "V*-leaf count is a query constant";

  // x(b) and y(b) per V*-leaf.
  std::vector<EstimateMap> x(static_cast<size_t>(k));
  std::unordered_map<AttrId, const EstimateMap*> x_of_leaf;
  mpc::ParallelRegion x_region(cluster);
  for (int l = 0; l < k; ++l) {
    x_region.NextBranch();
    x[static_cast<size_t>(l)] = EstimateX(
        cluster, instance, info.leaf_tbs[static_cast<size_t>(l)]);
    x_of_leaf[info.leaf_tbs[static_cast<size_t>(l)].b] =
        &x[static_cast<size_t>(l)];
  }
  std::vector<EstimateMap> y(static_cast<size_t>(k));
  for (int l = 0; l < k; ++l) {
    y[static_cast<size_t>(l)] = EstimateOutTree(
        cluster, instance, info, x_of_leaf,
        info.leaf_tbs[static_cast<size_t>(l)].b);
  }

  // Fresh attr ids for the per-leaf combined outputs.
  AttrId max_attr = 0;
  for (AttrId a : instance.query.attrs()) max_attr = std::max(max_attr, a);

  std::vector<DistRelation<S>> results;
  mpc::ParallelRegion pattern_region(cluster);
  for (int pattern = 0; pattern < (1 << k); ++pattern) {
    pattern_region.NextBranch();
    // Filter every relation touching leaf B_l by its heavy/light class.
    TreeInstance<S> sub{instance.query, instance.relations};
    for (int l = 0; l < k; ++l) {
      const AttrId b_attr = info.leaf_tbs[static_cast<size_t>(l)].b;
      const bool want_heavy = (pattern >> l) & 1;
      const auto& xl = x[static_cast<size_t>(l)];
      const auto& yl = y[static_cast<size_t>(l)];
      auto is_heavy = [&](Value b) {
        auto xi = xl.find(b);
        auto yi = yl.find(b);
        const double xv = xi == xl.end() ? 1.0 : xi->second;
        const double yv = yi == yl.end() ? 1.0 : yi->second;
        return xv > yv;
      };
      auto in_class = [&](Value b) {
        return is_heavy(b) == want_heavy ? 0 : -1;
      };
      for (int e : instance.query.IncidentEdges(b_attr)) {
        auto& rel = sub.relations[static_cast<size_t>(e)];
        const int pos = rel.schema.IndexOf(b_attr);
        rel = std::move(SplitByAttr(std::move(rel), pos, 1, in_class)[0]);
      }
    }
    cluster.ChargeUniformRound(
        (instance.TotalInputSize() + cluster.p() - 1) / cluster.p());
    RemoveDangling(cluster, &sub);
    bool any_empty = false;
    for (const auto& rel : sub.relations) {
      if (rel.TotalSize() == 0) any_empty = true;
    }
    if (any_empty) continue;

    // Fold the light leaves' T_B subtrees. Lemma 13: at least one light
    // leaf exists in every non-empty subquery; if the estimates ever
    // disagree, fold everything (correct, possibly more load).
    std::vector<int> light;
    for (int l = 0; l < k; ++l) {
      if (((pattern >> l) & 1) == 0) light.push_back(l);
    }
    if (light.empty()) {
      LOG(WARNING) << "all-heavy subquery non-empty (estimate noise); "
                      "folding every leaf";
      for (int l = 0; l < k; ++l) light.push_back(l);
    }

    // Build the residual query: folded T_Bs are replaced by one edge
    // (B, X_B) each.
    std::vector<QueryEdge> new_edges;
    std::vector<DistRelation<S>> new_rels;
    std::vector<AttrId> new_outputs;
    std::set<int> folded_edges;
    std::vector<std::pair<AttrId, DistRelation<S>>> dictionaries;
    std::set<AttrId> folded_outputs;

    bool subquery_empty = false;
    for (size_t li = 0; li < light.size(); ++li) {
      const auto& leaf =
          info.leaf_tbs[static_cast<size_t>(light[li])];
      for (int e : leaf.tb_edges) folded_edges.insert(e);

      // Shrink the star-like T_B into R(B, endpoints...), then combine.
      std::vector<AttrId> endpoints;
      for (const auto& arm : leaf.arms) endpoints.push_back(arm.endpoint());
      auto shrink = [&](const JoinTree::Arm& arm) {
        return FoldPath(cluster, sub.RelationsOf(arm.edge_indices), arm.path);
      };
      DistRelation<S> acc = JoinFold<S>(cluster, leaf.arms, shrink);
      if (acc.TotalSize() == 0) {
        subquery_empty = true;
        break;
      }
      for (AttrId a : endpoints) folded_outputs.insert(a);
      const AttrId x_attr =
          max_attr + 1 + static_cast<AttrId>(light[li]);
      CombinedRelation<S> combined =
          CombineAttrs(cluster, acc, endpoints, x_attr);
      new_edges.push_back({leaf.b, x_attr});
      new_rels.push_back(std::move(combined.binary));
      new_outputs.push_back(x_attr);
      dictionaries.push_back({x_attr, std::move(combined.dictionary)});
    }
    if (subquery_empty) continue;

    for (int e = 0; e < instance.query.num_edges(); ++e) {
      if (folded_edges.count(e) > 0) continue;
      new_edges.push_back(instance.query.edge(e));
      new_rels.push_back(std::move(sub.relations[static_cast<size_t>(e)]));
    }
    for (AttrId a : instance.query.output_attrs()) {
      if (folded_outputs.count(a) == 0) new_outputs.push_back(a);
    }

    TreeInstance<S> residual{JoinTree(std::move(new_edges), new_outputs),
                             std::move(new_rels)};
    DistRelation<S> r = ComputeTwig(cluster, std::move(residual));
    if (r.TotalSize() == 0) continue;
    for (auto& [x_attr, dict] : dictionaries) {
      r = ExpandAttrs(cluster, r, dict, x_attr);
    }
    results.push_back(ProjectLocal(r, outputs));
  }

  return ReduceUnion(cluster, std::move(results), Schema(outputs));
}

}  // namespace internal_tree

// The §7 algorithm for arbitrary tree join-aggregate queries.
template <SemiringC S>
DistRelation<S> TreeQueryAggregate(mpc::Cluster& cluster,
                                   TreeInstance<S> instance) {
  instance.Validate();
  const std::vector<AttrId> outputs = instance.query.output_attrs();
  RemoveDangling(cluster, &instance);
  ReduceInstance(cluster, &instance);

  if (instance.query.num_edges() == 1) {
    return AggregateByAttrs(cluster, instance.relations[0], outputs);
  }

  const auto twigs = instance.query.DecomposeIntoTwigs();
  std::vector<DistRelation<S>> twig_results;
  for (const auto& twig : twigs) {
    TreeInstance<S> sub_instance{
        instance.query.InducedSubquery(twig.edge_indices,
                                       twig.boundary_attrs),
        instance.RelationsOf(twig.edge_indices)};
    twig_results.push_back(
        internal_tree::ComputeTwig(cluster, std::move(sub_instance)));
  }

  // Join the twig results (everything is an output attribute now): plain
  // Yannakakis over the twig tree, connected order so each join shares
  // exactly one attribute.
  const int t = static_cast<int>(twig_results.size());
  std::vector<bool> joined(static_cast<size_t>(t), false);
  DistRelation<S> acc = std::move(twig_results[0]);
  joined[0] = true;
  int remaining = t - 1;
  while (remaining > 0) {
    bool progress = false;
    for (int i = 0; i < t; ++i) {
      if (joined[static_cast<size_t>(i)]) continue;
      const std::vector<AttrId> common =
          acc.schema.CommonAttrs(twig_results[static_cast<size_t>(i)].schema);
      if (common.empty()) continue;
      acc = TwoWayJoin(cluster, acc,
                       twig_results[static_cast<size_t>(i)]);
      joined[static_cast<size_t>(i)] = true;
      --remaining;
      progress = true;
    }
    CHECK(progress) << "twig join graph disconnected";
  }
  return AggregateByAttrs(cluster, acc, outputs);
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_TREE_QUERY_H_
