// JoinTree: the query class of the paper (§1.1).
//
// A join-aggregate query Q_y(R) is given by an acyclic hypergraph whose
// hyperedges all have exactly two attributes — i.e. the query is a tree
// whose vertices are attributes and whose edges are (binary) relations —
// plus a set y of output attributes. JoinTree stores that tree, validates
// it, and provides the structural analyses the algorithms need:
//
//  * free-connex test  — do the output attributes form a connected subtree?
//    (footnote 1; free-connex queries are the easy case already solved by
//    prior work)
//  * query classification — matrix multiplication / line / star /
//    star-like / general tree, which selects the §3–§7 algorithm;
//  * rooted traversal orders for Yannakakis;
//  * the arms of star and star-like queries (§6);
//  * the §7 fold step, twig decomposition and skeleton extraction.

#ifndef PARJOIN_QUERY_JOIN_TREE_H_
#define PARJOIN_QUERY_JOIN_TREE_H_

#include <optional>
#include <string>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/common/status.h"
#include "parjoin/relation/schema.h"

namespace parjoin {

// One hyperedge e = {u, v}: the relation R_e(u, v).
struct QueryEdge {
  AttrId u = -1;
  AttrId v = -1;

  bool Covers(AttrId a) const { return a == u || a == v; }
  AttrId Other(AttrId a) const {
    CHECK(Covers(a));
    return a == u ? v : u;
  }
};

enum class QueryShape {
  kSingleEdge,  // one relation
  kMatMul,      // A - B - C with y = {A, C}: sparse matrix multiplication
  kLine,        // path with y = {both endpoints}
  kStar,        // all edges share one center attribute; y = the leaves
  kStarLike,    // line-query arms sharing one non-output attribute (§6)
  kFreeConnex,  // output attrs form a connected subtree (prior work's case)
  kTree,        // general tree, handled by §7
};

const char* QueryShapeName(QueryShape shape);

// Reverse lookup for profile/calibration files (external data: Status,
// not CHECK). Accepts exactly the QueryShapeName spellings.
StatusOr<QueryShape> QueryShapeFromName(const std::string& name);

class JoinTree {
 public:
  // Builds and validates a query. Aborts (CHECK) if ValidateQuery fails —
  // for programmatically constructed queries whose validity is an internal
  // invariant. Queries built from external input (spec files, workload
  // configs) should go through Create() and handle the Status.
  JoinTree(std::vector<QueryEdge> edges, std::vector<AttrId> output_attrs);

  // Checks that the edges form a tree over the mentioned attributes (no
  // self-loops, |E| = |V| - 1, connected) and that every output attribute
  // occurs in some edge. InvalidArgument otherwise.
  static Status ValidateQuery(const std::vector<QueryEdge>& edges,
                              const std::vector<AttrId>& output_attrs);

  // Validating factory for externally supplied queries.
  static StatusOr<JoinTree> Create(std::vector<QueryEdge> edges,
                                   std::vector<AttrId> output_attrs);

  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<QueryEdge>& edges() const { return edges_; }
  const QueryEdge& edge(int i) const {
    return edges_[static_cast<size_t>(i)];
  }

  const std::vector<AttrId>& attrs() const { return attrs_; }
  const std::vector<AttrId>& output_attrs() const { return output_attrs_; }
  bool IsOutput(AttrId a) const;

  // Edges incident to attribute a (indices into edges()).
  const std::vector<int>& IncidentEdges(AttrId a) const;
  int Degree(AttrId a) const {
    return static_cast<int>(IncidentEdges(a).size());
  }

  // --- classification ---

  bool IsFreeConnex() const;
  QueryShape Classify() const;

  // True iff the query is a path A1 - A2 - ... - A_{n+1}. If so and
  // `path_attrs` != nullptr, fills it with the attributes in path order
  // (an arbitrary one of the two orientations).
  bool IsPath(std::vector<AttrId>* path_attrs = nullptr) const;

  // The edge between each consecutive pair of `path` (as IsPath fills
  // it): entry i is the lowest edge index joining path[i] and path[i+1].
  // CHECK-fails when a pair has no edge.
  std::vector<int> PathEdges(const std::vector<AttrId>& path) const;

  // True iff all edges share one attribute (the center). For single-edge
  // queries returns true with either endpoint as center.
  bool IsStarShaped(AttrId* center = nullptr) const;

  // --- traversal ---

  struct RootedEdge {
    int edge_index = -1;  // index into edges()
    AttrId child_attr = -1;   // the endpoint farther from the root
    AttrId parent_attr = -1;  // the endpoint closer to the root
  };

  // Edges ordered leaves-first for a bottom-up (Yannakakis) pass rooted at
  // `root_attr`. Reversing gives a top-down order.
  std::vector<RootedEdge> BottomUpOrder(AttrId root_attr) const;

  // --- §6 structure ---

  // One arm of a star or star-like query: the path from the center out to
  // a leaf. edge_indices[k] joins path[k] and path[k + 1], so `path` is
  // [center, C_1, ..., endpoint].
  struct Arm {
    std::vector<int> edge_indices;
    std::vector<AttrId> path;

    AttrId endpoint() const { return path.back(); }
    size_t length() const { return edge_indices.size(); }
  };

  // The arms around `center`, one per incident edge in IncidentEdges
  // order. CHECK-fails when an arm passes an attribute that lies on more
  // than two edges.
  std::vector<Arm> Arms(AttrId center) const;

  // --- §7 structure ---

  // One step of the §7 reduction (query/reduce.h): the first edge, by
  // index, with a non-output endpoint that no other edge covers, and the
  // query without that edge. nullopt when no edge qualifies or only one
  // edge remains.
  struct Fold;
  std::optional<Fold> NextFold() const;

  // Attributes that appear in more than two relations.
  std::vector<AttrId> HighDegreeAttrs() const;

  // A twig of the (reduced) query: a maximal subtree delimited by non-leaf
  // output attributes (§7, Figure 2). `edge_indices` index into edges();
  // `boundary_attrs` are the output attributes shared with other twigs.
  struct Twig {
    std::vector<int> edge_indices;
    std::vector<AttrId> boundary_attrs;
  };

  // Splits the query at every non-leaf output attribute. Precondition
  // (established by the §7 preprocessing, see query/reduce.h): every leaf
  // attribute is an output attribute.
  std::vector<Twig> DecomposeIntoTwigs() const;

  // Builds the subquery induced by a subset of edges. Output attributes of
  // the subquery are the original output attributes it touches plus any
  // attributes in `extra_outputs` it touches (twig boundaries must stay).
  JoinTree InducedSubquery(const std::vector<int>& edge_indices,
                           const std::vector<AttrId>& extra_outputs) const;

  std::string DebugString() const;

 private:
  std::vector<QueryEdge> edges_;
  std::vector<AttrId> attrs_;         // sorted unique attribute ids
  std::vector<AttrId> output_attrs_;  // sorted unique
  // incident_[i] lists edge indices incident to attrs_[i].
  std::vector<std::vector<int>> incident_;

  int AttrIndex(AttrId a) const;  // index into attrs_, -1 if absent
};

struct JoinTree::Fold {
  int edge = -1;             // the folded edge: an index into edges()
  AttrId private_attr = -1;  // the endpoint only `edge` covers
  JoinTree rest;             // the query without `edge`, same outputs
};

}  // namespace parjoin

#endif  // PARJOIN_QUERY_JOIN_TREE_H_
