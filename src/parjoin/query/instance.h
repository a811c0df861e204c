// TreeInstance: a JoinTree paired with one distributed annotated relation
// per edge — the unit every algorithm in src/parjoin/algorithms consumes.

#ifndef PARJOIN_QUERY_INSTANCE_H_
#define PARJOIN_QUERY_INSTANCE_H_

#include <string>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/common/status.h"
#include "parjoin/query/join_tree.h"
#include "parjoin/relation/relation.h"

namespace parjoin {

template <SemiringC S>
struct TreeInstance {
  JoinTree query;
  // relations[i] corresponds to query.edge(i); its schema must be exactly
  // {edge.u, edge.v} (in either order).
  std::vector<DistRelation<S>> relations;

  // Copies of the relations of `edges` (indices into query.edges()), in
  // that order.
  std::vector<DistRelation<S>> RelationsOf(
      const std::vector<int>& edges) const {
    std::vector<DistRelation<S>> out;
    out.reserve(edges.size());
    for (int e : edges) out.push_back(relations[static_cast<size_t>(e)]);
    return out;
  }

  std::int64_t TotalInputSize() const {
    std::int64_t n = 0;
    for (const auto& rel : relations) n += rel.TotalSize();
    return n;
  }

  // Instance/query consistency as a reportable error: instances built from
  // external input (spec files) should surface a Status, not abort.
  Status ValidateStatus() const {
    if (static_cast<int>(relations.size()) != query.num_edges()) {
      return InvalidArgumentError(
          "instance has " + std::to_string(relations.size()) +
          " relations for " + std::to_string(query.num_edges()) + " edges");
    }
    for (int i = 0; i < query.num_edges(); ++i) {
      const auto& schema = relations[static_cast<size_t>(i)].schema;
      if (schema.size() != 2) {
        return InvalidArgumentError("relation " + std::to_string(i) +
                                    " is not binary");
      }
      const QueryEdge& e = query.edge(i);
      if (!schema.Contains(e.u) || !schema.Contains(e.v)) {
        return InvalidArgumentError(
            "relation " + std::to_string(i) + " schema does not cover edge {" +
            std::to_string(e.u) + ", " + std::to_string(e.v) + "}");
      }
    }
    return OkStatus();
  }

  // CHECK-flavored wrapper for internally constructed instances.
  void Validate() const { CHECK_OK(ValidateStatus()); }
};

}  // namespace parjoin

#endif  // PARJOIN_QUERY_INSTANCE_H_
