#include "parjoin/query/join_tree.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace parjoin {

const char* QueryShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kSingleEdge:
      return "single-edge";
    case QueryShape::kMatMul:
      return "matrix-multiplication";
    case QueryShape::kLine:
      return "line";
    case QueryShape::kStar:
      return "star";
    case QueryShape::kStarLike:
      return "star-like";
    case QueryShape::kFreeConnex:
      return "free-connex";
    case QueryShape::kTree:
      return "tree";
  }
  return "unknown";
}

StatusOr<QueryShape> QueryShapeFromName(const std::string& name) {
  static constexpr QueryShape kAll[] = {
      QueryShape::kSingleEdge, QueryShape::kMatMul,    QueryShape::kLine,
      QueryShape::kStar,       QueryShape::kStarLike,  QueryShape::kFreeConnex,
      QueryShape::kTree,
  };
  for (QueryShape s : kAll) {
    if (name == QueryShapeName(s)) return s;
  }
  return InvalidArgumentError("unknown query shape name: '" + name + "'");
}

Status JoinTree::ValidateQuery(const std::vector<QueryEdge>& edges,
                               const std::vector<AttrId>& output_attrs) {
  if (edges.empty()) {
    return InvalidArgumentError("query must have at least one relation");
  }
  std::set<AttrId> attr_set;
  for (const QueryEdge& e : edges) {
    if (e.u == e.v) {
      return InvalidArgumentError(
          "self-loop edges are not part of the query class (attribute " +
          std::to_string(e.u) + ")");
    }
    attr_set.insert(e.u);
    attr_set.insert(e.v);
  }

  // The hypergraph must be a tree: |E| = |V| - 1 and connected.
  if (edges.size() != attr_set.size() - 1) {
    return InvalidArgumentError(
        "edge/vertex count mismatch: not a tree (" +
        std::to_string(edges.size()) + " edges over " +
        std::to_string(attr_set.size()) + " attributes)");
  }
  std::map<AttrId, std::vector<AttrId>> adjacent;
  for (const QueryEdge& e : edges) {
    adjacent[e.u].push_back(e.v);
    adjacent[e.v].push_back(e.u);
  }
  std::set<AttrId> seen = {*attr_set.begin()};
  std::vector<AttrId> frontier = {*attr_set.begin()};
  while (!frontier.empty()) {
    const AttrId a = frontier.back();
    frontier.pop_back();
    for (AttrId b : adjacent[a]) {
      if (seen.insert(b).second) frontier.push_back(b);
    }
  }
  if (seen.size() != attr_set.size()) {
    return InvalidArgumentError("query hypergraph is disconnected");
  }

  for (AttrId y : output_attrs) {
    if (attr_set.find(y) == attr_set.end()) {
      return InvalidArgumentError("output attribute " + std::to_string(y) +
                                  " not in query");
    }
  }
  return OkStatus();
}

StatusOr<JoinTree> JoinTree::Create(std::vector<QueryEdge> edges,
                                    std::vector<AttrId> output_attrs) {
  PARJOIN_RETURN_IF_ERROR(ValidateQuery(edges, output_attrs));
  return JoinTree(std::move(edges), std::move(output_attrs));
}

JoinTree::JoinTree(std::vector<QueryEdge> edges,
                   std::vector<AttrId> output_attrs)
    : edges_(std::move(edges)), output_attrs_(std::move(output_attrs)) {
  CHECK_OK(ValidateQuery(edges_, output_attrs_));

  std::set<AttrId> attr_set;
  for (const QueryEdge& e : edges_) {
    attr_set.insert(e.u);
    attr_set.insert(e.v);
  }
  attrs_.assign(attr_set.begin(), attr_set.end());

  incident_.assign(attrs_.size(), {});
  for (int i = 0; i < num_edges(); ++i) {
    incident_[static_cast<size_t>(AttrIndex(edges_[static_cast<size_t>(i)].u))]
        .push_back(i);
    incident_[static_cast<size_t>(AttrIndex(edges_[static_cast<size_t>(i)].v))]
        .push_back(i);
  }

  std::sort(output_attrs_.begin(), output_attrs_.end());
  output_attrs_.erase(
      std::unique(output_attrs_.begin(), output_attrs_.end()),
      output_attrs_.end());
}

int JoinTree::AttrIndex(AttrId a) const {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), a);
  if (it == attrs_.end() || *it != a) return -1;
  return static_cast<int>(it - attrs_.begin());
}

bool JoinTree::IsOutput(AttrId a) const {
  return std::binary_search(output_attrs_.begin(), output_attrs_.end(), a);
}

const std::vector<int>& JoinTree::IncidentEdges(AttrId a) const {
  const int i = AttrIndex(a);
  CHECK_GE(i, 0) << "unknown attribute " << a;
  return incident_[static_cast<size_t>(i)];
}

bool JoinTree::IsFreeConnex() const {
  // Free-connex for tree queries: the output attributes form a connected
  // subtree (footnote 1). Edges of the attribute tree connect the two
  // endpoints of every relation.
  if (output_attrs_.size() <= 1) return true;
  std::set<AttrId> targets(output_attrs_.begin(), output_attrs_.end());
  // BFS within the output-attribute-induced subgraph.
  std::set<AttrId> reached = {output_attrs_[0]};
  std::vector<AttrId> frontier = {output_attrs_[0]};
  while (!frontier.empty()) {
    AttrId a = frontier.back();
    frontier.pop_back();
    for (int ei : IncidentEdges(a)) {
      AttrId b = edges_[static_cast<size_t>(ei)].Other(a);
      if (targets.count(b) > 0 && reached.insert(b).second) {
        frontier.push_back(b);
      }
    }
  }
  return reached.size() == targets.size();
}

bool JoinTree::IsPath(std::vector<AttrId>* path_attrs) const {
  AttrId endpoint = -1;
  for (AttrId a : attrs_) {
    const int deg = Degree(a);
    if (deg > 2) return false;
    if (deg == 1 && endpoint < 0) endpoint = a;
  }
  CHECK_GE(endpoint, 0);  // every tree with >= 1 edge has a leaf
  if (path_attrs != nullptr) {
    path_attrs->clear();
    AttrId prev = -1;
    AttrId cur = endpoint;
    path_attrs->push_back(cur);
    while (true) {
      AttrId next = -1;
      for (int ei : IncidentEdges(cur)) {
        AttrId other = edges_[static_cast<size_t>(ei)].Other(cur);
        if (other != prev) next = other;
      }
      if (next < 0) break;
      path_attrs->push_back(next);
      prev = cur;
      cur = next;
    }
  }
  return true;
}

std::vector<int> JoinTree::PathEdges(const std::vector<AttrId>& path) const {
  std::vector<int> out;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    int found = -1;
    for (int e = 0; e < num_edges() && found < 0; ++e) {
      const QueryEdge& edge = edges_[static_cast<size_t>(e)];
      if ((edge.u == path[i] && edge.v == path[i + 1]) ||
          (edge.v == path[i] && edge.u == path[i + 1])) {
        found = e;
      }
    }
    CHECK_GE(found, 0) << "no edge between path attributes " << path[i]
                       << " and " << path[i + 1];
    out.push_back(found);
  }
  return out;
}

bool JoinTree::IsStarShaped(AttrId* center) const {
  if (num_edges() == 1) {
    if (center != nullptr) *center = edges_[0].u;
    return true;
  }
  // The center is the unique attribute shared by all edges.
  for (AttrId candidate : {edges_[0].u, edges_[0].v}) {
    bool all = true;
    for (const QueryEdge& e : edges_) {
      if (!e.Covers(candidate)) {
        all = false;
        break;
      }
    }
    if (all) {
      if (center != nullptr) *center = candidate;
      return true;
    }
  }
  return false;
}

QueryShape JoinTree::Classify() const {
  if (num_edges() == 1) return QueryShape::kSingleEdge;
  if (IsFreeConnex()) return QueryShape::kFreeConnex;

  std::vector<AttrId> path;
  if (IsPath(&path)) {
    const bool endpoints_out =
        IsOutput(path.front()) && IsOutput(path.back());
    bool interior_out = false;
    for (size_t i = 1; i + 1 < path.size(); ++i) {
      if (IsOutput(path[i])) interior_out = true;
    }
    if (endpoints_out && !interior_out &&
        output_attrs_.size() == 2) {
      return num_edges() == 2 ? QueryShape::kMatMul : QueryShape::kLine;
    }
    // A path with interior outputs is a general tree (twigs split it).
  }

  AttrId center = -1;
  if (IsStarShaped(&center) && !IsOutput(center)) {
    bool leaves_out = true;
    for (AttrId a : attrs_) {
      if (a == center) continue;
      if (!IsOutput(a)) leaves_out = false;
    }
    if (leaves_out) return QueryShape::kStar;
  }

  // Star-like (§6): exactly one attribute B in more than two relations,
  // B is a non-output attribute, every leaf is an output attribute, and
  // all interior arm attributes are non-output.
  std::vector<AttrId> high = HighDegreeAttrs();
  if (high.size() == 1 && !IsOutput(high[0])) {
    bool ok = true;
    for (AttrId a : attrs_) {
      if (a == high[0]) continue;
      const bool leaf = Degree(a) == 1;
      if (leaf && !IsOutput(a)) ok = false;
      if (!leaf && IsOutput(a)) ok = false;
    }
    if (ok) return QueryShape::kStarLike;
  }

  return QueryShape::kTree;
}

std::vector<JoinTree::RootedEdge> JoinTree::BottomUpOrder(
    AttrId root_attr) const {
  CHECK_GE(AttrIndex(root_attr), 0);
  std::vector<RootedEdge> order;
  order.reserve(edges_.size());
  // Iterative post-order DFS over the attribute tree.
  struct Frame {
    AttrId attr;
    AttrId parent;
    size_t next_edge = 0;
  };
  std::vector<Frame> stack = {{root_attr, -1, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& inc = IncidentEdges(frame.attr);
    if (frame.next_edge < inc.size()) {
      const int ei = inc[frame.next_edge++];
      const AttrId child = edges_[static_cast<size_t>(ei)].Other(frame.attr);
      if (child == frame.parent) continue;
      stack.push_back({child, frame.attr, 0});
    } else {
      // All children done; emit the edge to the parent.
      if (frame.parent >= 0) {
        for (int ei : IncidentEdges(frame.attr)) {
          if (edges_[static_cast<size_t>(ei)].Other(frame.attr) ==
              frame.parent) {
            order.push_back(RootedEdge{ei, frame.attr, frame.parent});
            break;
          }
        }
      }
      stack.pop_back();
    }
  }
  CHECK_EQ(order.size(), edges_.size());
  return order;
}

std::vector<JoinTree::Arm> JoinTree::Arms(AttrId center) const {
  std::vector<Arm> arms;
  for (int first_edge : IncidentEdges(center)) {
    Arm arm;
    arm.path.push_back(center);
    int edge = first_edge;
    AttrId prev = center;
    while (true) {
      arm.edge_indices.push_back(edge);
      const AttrId next = edges_[static_cast<size_t>(edge)].Other(prev);
      arm.path.push_back(next);
      if (Degree(next) == 1) break;
      CHECK_EQ(Degree(next), 2) << "arm attr " << next
                                << " must be an interior path attr";
      int next_edge = -1;
      for (int e : IncidentEdges(next)) {
        if (e != edge) next_edge = e;
      }
      edge = next_edge;
      prev = next;
    }
    arms.push_back(std::move(arm));
  }
  return arms;
}

std::optional<JoinTree::Fold> JoinTree::NextFold() const {
  if (num_edges() <= 1) return std::nullopt;
  for (int i = 0; i < num_edges(); ++i) {
    const QueryEdge& e = edges_[static_cast<size_t>(i)];
    for (AttrId a : {e.u, e.v}) {
      if (IsOutput(a) || Degree(a) != 1) continue;
      std::vector<QueryEdge> rest = edges_;
      rest.erase(rest.begin() + i);
      return Fold{i, a, JoinTree(std::move(rest), output_attrs_)};
    }
  }
  return std::nullopt;
}

std::vector<AttrId> JoinTree::HighDegreeAttrs() const {
  std::vector<AttrId> out;
  for (AttrId a : attrs_) {
    if (Degree(a) > 2) out.push_back(a);
  }
  return out;
}

std::vector<JoinTree::Twig> JoinTree::DecomposeIntoTwigs() const {
  // Cut vertices: non-leaf output attributes. Traversal may end at a cut
  // vertex but not pass through it.
  std::set<AttrId> cuts;
  for (AttrId y : output_attrs_) {
    if (Degree(y) >= 2) cuts.insert(y);
  }

  std::vector<Twig> twigs;
  std::vector<bool> assigned(edges_.size(), false);
  for (int start = 0; start < num_edges(); ++start) {
    if (assigned[static_cast<size_t>(start)]) continue;
    Twig twig;
    std::vector<int> frontier = {start};
    assigned[static_cast<size_t>(start)] = true;
    std::set<AttrId> twig_attrs;
    while (!frontier.empty()) {
      const int ei = frontier.back();
      frontier.pop_back();
      twig.edge_indices.push_back(ei);
      for (AttrId a : {edges_[static_cast<size_t>(ei)].u,
                       edges_[static_cast<size_t>(ei)].v}) {
        twig_attrs.insert(a);
        if (cuts.count(a) > 0) continue;  // do not cross a cut vertex
        for (int next : IncidentEdges(a)) {
          if (!assigned[static_cast<size_t>(next)]) {
            assigned[static_cast<size_t>(next)] = true;
            frontier.push_back(next);
          }
        }
      }
    }
    for (AttrId a : twig_attrs) {
      if (cuts.count(a) > 0) twig.boundary_attrs.push_back(a);
    }
    std::sort(twig.edge_indices.begin(), twig.edge_indices.end());
    twigs.push_back(std::move(twig));
  }
  return twigs;
}

JoinTree JoinTree::InducedSubquery(
    const std::vector<int>& edge_indices,
    const std::vector<AttrId>& extra_outputs) const {
  std::vector<QueryEdge> sub_edges;
  std::set<AttrId> sub_attrs;
  for (int ei : edge_indices) {
    const QueryEdge& e = edges_[static_cast<size_t>(ei)];
    sub_edges.push_back(e);
    sub_attrs.insert(e.u);
    sub_attrs.insert(e.v);
  }
  std::vector<AttrId> sub_outputs;
  for (AttrId a : sub_attrs) {
    if (IsOutput(a) ||
        std::find(extra_outputs.begin(), extra_outputs.end(), a) !=
            extra_outputs.end()) {
      sub_outputs.push_back(a);
    }
  }
  return JoinTree(std::move(sub_edges), std::move(sub_outputs));
}

std::string JoinTree::DebugString() const {
  std::ostringstream os;
  os << "JoinTree{edges=[";
  for (int i = 0; i < num_edges(); ++i) {
    if (i > 0) os << ", ";
    os << "(" << edges_[static_cast<size_t>(i)].u << ","
       << edges_[static_cast<size_t>(i)].v << ")";
  }
  os << "], y={";
  for (size_t i = 0; i < output_attrs_.size(); ++i) {
    if (i > 0) os << ",";
    os << output_attrs_[i];
  }
  os << "}, shape=" << QueryShapeName(Classify()) << "}";
  return os.str();
}

}  // namespace parjoin
