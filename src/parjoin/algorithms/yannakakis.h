// The distributed Yannakakis algorithm (§1.2, §1.4): the baseline every new
// algorithm in the paper is compared against.
//
// After dangling-tuple removal, relations are eliminated bottom-up: a leaf
// relation is joined into its parent with the optimal two-way join and the
// result is immediately ⊕-aggregated onto the attributes still needed (the
// parent connector plus the output attributes collected so far). Its load
// is O(N/p + J/p) where J is the largest intermediate join size — the
// Table 1 baseline column.

#ifndef PARJOIN_ALGORITHMS_YANNAKAKIS_H_
#define PARJOIN_ALGORITHMS_YANNAKAKIS_H_

#include <utility>
#include <vector>

#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/query/dangling.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/ops.h"

namespace parjoin {

struct YannakakisOptions {
  // When false, runs the literal 1981 algorithm: intermediate relations are
  // only projected at the very end (no aggregation pushdown). This is the
  // O(N/p + J/p) baseline with J up to the FULL join size — kept as a
  // comparison point; the default (true) is the strong [15]-style baseline
  // that aggregates after every join.
  bool aggregate_pushdown = true;
};

// Computes Q_y(R) for an arbitrary tree instance. The result schema is the
// query's output attributes (sorted); for y = {} the result is a single
// scalar tuple with an empty row (or empty if the join is empty).
template <SemiringC S>
DistRelation<S> YannakakisJoinAggregate(
    mpc::Cluster& cluster, TreeInstance<S> instance,
    const YannakakisOptions& options = {}) {
  instance.Validate();
  RemoveDangling(cluster, &instance);

  const JoinTree& q = instance.query;
  if (q.num_edges() == 1) {
    return AggregateByAttrs(cluster, instance.relations[0],
                            q.output_attrs());
  }

  // Root at an output attribute when one exists.
  AttrId root = q.attrs().front();
  if (!q.output_attrs().empty()) root = q.output_attrs().front();
  const auto order = q.BottomUpOrder(root);

  // message[e]: the relation currently standing in for edge e's subtree.
  std::vector<DistRelation<S>> message(instance.relations.size());

  for (const auto& re : order) {
    DistRelation<S> current =
        std::move(instance.relations[static_cast<size_t>(re.edge_index)]);
    for (int child_edge : q.IncidentEdges(re.child_attr)) {
      if (child_edge == re.edge_index) continue;
      const auto& child = message[static_cast<size_t>(child_edge)];
      DistRelation<S> joined = TwoWayJoin(cluster, current, child);
      if (options.aggregate_pushdown) {
        // Keep both connectors (the child attribute is still needed to
        // join the remaining children) plus every output attribute.
        std::vector<AttrId> keep = {re.parent_attr, re.child_attr};
        const Schema joined_schema = joined.schema;
        for (AttrId a : joined_schema.attrs()) {
          if (a != re.parent_attr && a != re.child_attr && q.IsOutput(a)) {
            keep.push_back(a);
          }
        }
        current = AggregateByAttrs(cluster, joined, keep);
      } else {
        current = std::move(joined);  // 1981 mode: no early aggregation
      }
    }
    // All children joined: the child connector can be aggregated away
    // unless it is an output attribute.
    if (options.aggregate_pushdown && !q.IsOutput(re.child_attr)) {
      std::vector<AttrId> keep;
      for (AttrId a : current.schema.attrs()) {
        if (a != re.child_attr) keep.push_back(a);
      }
      current = AggregateByAttrs(cluster, current, keep);
    }
    message[static_cast<size_t>(re.edge_index)] = std::move(current);
  }

  // Combine the root's incident messages.
  DistRelation<S> acc;
  bool first = true;
  for (int ei : q.IncidentEdges(root)) {
    if (first) {
      acc = std::move(message[static_cast<size_t>(ei)]);
      first = false;
    } else {
      DistRelation<S> joined =
          TwoWayJoin(cluster, acc, message[static_cast<size_t>(ei)]);
      if (options.aggregate_pushdown) {
        std::vector<AttrId> keep = {root};
        for (AttrId a : joined.schema.attrs()) {
          if (a != root && q.IsOutput(a)) keep.push_back(a);
        }
        acc = AggregateByAttrs(cluster, joined, keep);
      } else {
        acc = std::move(joined);
      }
    }
  }
  return AggregateByAttrs(cluster, acc, q.output_attrs());
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_YANNAKAKIS_H_
