// ExplainQuery: a human-readable account of how the library will execute
// a tree join-aggregate query — the shape classification, the §7
// preprocessing and twig decomposition, per-twig algorithm dispatch, the
// star-like arm structure, and the Table 1 bound that applies. Pure
// analysis: nothing is computed and no load is charged.
//
// The cost-based planner (parjoin/plan/planner.h) embeds this report in
// PhysicalPlan::structure and extends it with instance-specific numbers:
// estimated OUT, scored candidates, and predicted vs. measured load.

#ifndef PARJOIN_QUERY_EXPLAIN_H_
#define PARJOIN_QUERY_EXPLAIN_H_

#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "parjoin/query/join_tree.h"

namespace parjoin {

namespace internal_explain {

inline const char* BoundFor(QueryShape shape) {
  switch (shape) {
    case QueryShape::kSingleEdge:
      return "O((N+OUT)/p) (aggregation only)";
    case QueryShape::kMatMul:
      return "O(N/p + min{sqrt(N1*N2/p), (N1*N2)^(1/3)*OUT^(1/3)/p^(2/3)}) "
             "(Theorem 1, optimal)";
    case QueryShape::kLine:
      return "O((N*OUT/p)^(2/3) + N*sqrt(OUT)/p + (N+OUT)/p) (Theorem 4)";
    case QueryShape::kStar:
      return "O((N*OUT/p)^(2/3) + N*sqrt(OUT)/p + (N+OUT)/p) (Theorem 5)";
    case QueryShape::kStarLike:
      return "O((N*N')^(1/3)*OUT^(1/2)/p^(2/3) + N'^(2/3)*OUT^(1/3)/p^(2/3) "
             "+ N*OUT^(2/3)/p + (N+N'+OUT)/p) (Lemma 7)";
    case QueryShape::kFreeConnex:
      return "O(N/p + OUT/p) (free-connex; prior work / Yannakakis)";
    case QueryShape::kTree:
      return "O(N*OUT^(2/3)/p + (N+OUT)/p) (Theorem 6)";
  }
  return "?";
}

inline void DescribeShape(const JoinTree& q, const std::string& indent,
                          std::ostringstream& os) {
  const QueryShape shape = q.Classify();
  os << indent << "shape: " << QueryShapeName(shape) << "\n"
     << indent << "load bound: " << BoundFor(shape) << "\n";
  if (shape == QueryShape::kStarLike || shape == QueryShape::kStar) {
    AttrId center = -1;
    if (!q.IsStarShaped(&center)) center = q.HighDegreeAttrs()[0];
    os << indent << "center B = " << center << "; arms:";
    for (const JoinTree::Arm& arm : q.Arms(center)) {
      os << " [A" << arm.endpoint() << ", length " << arm.length() << "]";
    }
    os << "\n";
  }
  if (shape == QueryShape::kTree) {
    const auto high = q.HighDegreeAttrs();
    os << indent << "V* (attrs in >2 relations): {";
    for (size_t i = 0; i < high.size(); ++i) {
      if (i > 0) os << ", ";
      os << high[i];
    }
    os << "} -> skeleton divide & conquer (2^|S∩ȳ| heavy/light patterns)\n";
  }
}

}  // namespace internal_explain

// Explains the execution plan for `query`. The report mirrors what
// TreeQueryAggregate will do (minus the data-dependent estimates).
inline std::string ExplainQuery(const JoinTree& query) {
  std::ostringstream os;
  os << "query: " << query.DebugString() << "\n";

  // §7 preprocessing preview: which leaf relations fold away.
  // (The fold is data-dependent only in its annotations; the structure is
  // static.) Simulate the reduction on the tree alone.
  JoinTree reduced = query;
  int folds = 0;
  while (std::optional<JoinTree::Fold> fold = reduced.NextFold()) {
    reduced = std::move(fold->rest);
    ++folds;
  }
  if (folds > 0) {
    os << "preprocessing (§7): " << folds
       << " relation(s) with private non-output attributes fold away -> "
       << reduced.num_edges() << " relation(s) remain\n";
  }

  if (reduced.num_edges() == 1) {
    os << "plan: single relation -> aggregate by outputs\n";
    return os.str();
  }

  const auto twigs = reduced.DecomposeIntoTwigs();
  if (twigs.size() == 1) {
    internal_explain::DescribeShape(reduced, "", os);
    return os.str();
  }

  os << "twig decomposition: " << twigs.size() << " twigs (split at "
     << "non-leaf output attributes); twig results joined by Yannakakis "
     << "(free-connex, O(OUT/p))\n";
  for (size_t i = 0; i < twigs.size(); ++i) {
    JoinTree sub = reduced.InducedSubquery(twigs[i].edge_indices,
                                           twigs[i].boundary_attrs);
    os << "  twig " << (i + 1) << " (" << twigs[i].edge_indices.size()
       << " relations):\n";
    internal_explain::DescribeShape(sub, "    ", os);
  }
  return os.str();
}

}  // namespace parjoin

#endif  // PARJOIN_QUERY_EXPLAIN_H_
