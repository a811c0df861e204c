// Query reduction (§7 preprocessing).
//
// Iteratively removes a relation R_e when some non-output attribute v
// appears only in e: the ⊕-aggregate of R_e per shared attribute value is
// ⊗-attached to a neighbouring relation, and e disappears from the tree.
// After the reduction every leaf attribute of the query is an output
// attribute (Figure 2, middle). All steps are linear-load primitives.

#ifndef PARJOIN_QUERY_REDUCE_H_
#define PARJOIN_QUERY_REDUCE_H_

#include <optional>
#include <utility>
#include <vector>

#include "parjoin/mpc/cluster.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/ops.h"

namespace parjoin {

// Applies the reduction in place. Stops when no rule applies or only one
// relation remains (a single-edge query is handled directly by the
// algorithms regardless of its output attributes).
template <SemiringC S>
void ReduceInstance(mpc::Cluster& cluster, TreeInstance<S>* instance) {
  while (std::optional<JoinTree::Fold> fold = instance->query.NextFold()) {
    const JoinTree& q = instance->query;
    const int fold_edge = fold->edge;
    const AttrId shared = q.edge(fold_edge).Other(fold->private_attr);
    // Aggregate the private attribute away: factors(shared) = Σ_v R_e.
    DistRelation<S> factors = AggregateByAttrs(
        cluster, instance->relations[static_cast<size_t>(fold_edge)],
        {shared});

    // Attach to any neighbour through `shared`.
    int neighbor = -1;
    for (int ei : q.IncidentEdges(shared)) {
      if (ei != fold_edge) {
        neighbor = ei;
        break;
      }
    }
    CHECK_GE(neighbor, 0);
    instance->relations[static_cast<size_t>(neighbor)] = MultiplyIntoByAttr(
        cluster, instance->relations[static_cast<size_t>(neighbor)], factors,
        shared);

    // Drop the folded edge's relation; fold->rest is the query without it.
    std::vector<DistRelation<S>> relations;
    for (int i = 0; i < q.num_edges(); ++i) {
      if (i == fold_edge) continue;
      relations.push_back(
          std::move(instance->relations[static_cast<size_t>(i)]));
    }
    instance->query = std::move(fold->rest);
    instance->relations = std::move(relations);
  }
}

}  // namespace parjoin

#endif  // PARJOIN_QUERY_REDUCE_H_
