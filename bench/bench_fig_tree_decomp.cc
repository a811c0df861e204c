// E9 — Figures 2-4: tree preprocessing, twig decomposition, and skeleton
// extraction, exercised on the exact query drawn in Figure 2.
//
// Prints the structural decomposition (twig shapes, matching the figure's
// six twigs), the skeleton of the general twig (Figure 3), and per-twig
// measured loads of the §7 algorithm.

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "parjoin/algorithms/tree_query.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader("E9", "Figures 2-4 — tree decomposition",
                     "Structural reproduction of the figures plus per-twig "
                     "measured loads.");

  JoinTree q = Fig2Query();
  std::cout << "Figure 2 query: " << q.DebugString() << "\n\n";

  const auto twigs = q.DecomposeIntoTwigs();
  std::cout << "Twig decomposition (" << twigs.size()
            << " twigs; the figure shows 6):\n";
  TablePrinter twig_table({"twig", "edges", "shape", "boundary_attrs"});
  for (size_t i = 0; i < twigs.size(); ++i) {
    JoinTree sub = q.InducedSubquery(twigs[i].edge_indices,
                                     twigs[i].boundary_attrs);
    std::string boundary;
    for (AttrId a : twigs[i].boundary_attrs) {
      if (!boundary.empty()) boundary += ",";
      boundary += std::to_string(a);
    }
    twig_table.AddRow({Fmt(static_cast<std::int64_t>(i + 1)),
                       Fmt(static_cast<std::int64_t>(
                           twigs[i].edge_indices.size())),
                       QueryShapeName(sub.Classify()), boundary});
  }
  twig_table.Print(std::cout);

  // Figure 3: the skeleton of the general twig.
  for (const auto& twig : twigs) {
    JoinTree sub = q.InducedSubquery(twig.edge_indices, twig.boundary_attrs);
    if (sub.Classify() != QueryShape::kTree) continue;
    std::cout << "\nGeneral twig (Figure 3 shape): " << sub.DebugString()
              << "\n";
    const auto info = internal_tree::AnalyzeSkeleton(sub);
    std::cout << "  V* (attrs in >2 relations): ";
    for (AttrId a : info.vstar) std::cout << a << " ";
    std::cout << "\n  V*-leaves and their star-like T_B sizes:\n";
    for (const auto& leaf : info.leaf_tbs) {
      std::cout << "    B = " << leaf.b << ": |E_B| = "
                << leaf.tb_edges.size() << "\n";
    }
    std::cout << "  skeleton edges: " << info.skeleton_edges.size() << "\n";
  }

  // Per-twig loads on a random instance.
  std::cout << "\nPer-twig measured loads (p = 32, 200 tuples/relation):\n";
  TablePrinter load_table({"twig", "shape", "load", "rounds", "out"});
  for (size_t i = 0; i < twigs.size(); ++i) {
    std::int64_t out = 0;
    std::string shape;
    bench::RunResult r = bench::Measure(32, 1, [&](mpc::Cluster& c) {
      auto instance = GenTreeRandom<S>(c, Fig2Query(), 200, 100, 7);
      JoinTree sub = q.InducedSubquery(twigs[i].edge_indices,
                                       twigs[i].boundary_attrs);
      shape = QueryShapeName(sub.Classify());
      TreeInstance<S> sub_instance{sub, {}};
      for (int e : twigs[i].edge_indices) {
        sub_instance.relations.push_back(
            std::move(instance.relations[static_cast<size_t>(e)]));
      }
      auto result = internal_tree::ComputeTwig(c, std::move(sub_instance));
      out = result.TotalSize();
    });
    load_table.AddRow({Fmt(static_cast<std::int64_t>(i + 1)), shape,
                       Fmt(r.stats.max_load),
                       Fmt(static_cast<std::int64_t>(r.stats.rounds)),
                       Fmt(out)});
  }
  load_table.Print(std::cout);
  std::cout << std::endl;
  return 0;
}
