// E4 — Table 1, row "Tree".
//
// Distributed Yannakakis (O(N/p + N*OUT/p)) against the §7 algorithm
// (O(N*OUT^{2/3}/p + (N+OUT)/p), Theorem 6) on: the Figure 2 query, the
// Figure 3 general twig in isolation, and the Figure 1 star-like query
// (Lemma 7) — the paper's three non-simple tree shapes.

#include <cstdint>
#include <functional>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/algorithms/tree_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

void RunSweep(const std::string& title, int p,
              const std::vector<std::function<TreeInstance<S>(mpc::Cluster&)>>&
                  gens) {
  std::cout << title << " (p = " << p << ")\n";
  TablePrinter table({"N_total", "OUT", "L_yannakakis", "L_theorem6",
                      "speedup", "bound_yann", "bound_thm6", "ms_thm6"});
  for (const auto& gen : gens) {
    std::int64_t n_total = 0;
    std::int64_t out_measured = 0;
    bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = gen(c);
      n_total = instance.TotalInputSize();
      auto r = YannakakisJoinAggregate(c, std::move(instance));
      out_measured = r.TotalSize();
    });
    bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = gen(c);
      TreeQueryAggregate(c, std::move(instance));
    });
    const std::int64_t n_rel =
        n_total / 15;  // rough per-relation size for the bound columns
    table.AddRow(
        {Fmt(n_total), Fmt(out_measured), Fmt(yann.stats.max_load),
         Fmt(ours.stats.max_load),
         bench::Ratio(static_cast<double>(yann.stats.max_load),
                      static_cast<double>(ours.stats.max_load)),
         Fmt(plan::YannakakisTreeBound(n_rel, out_measured, p)),
         Fmt(plan::NewTreeBound(n_rel, out_measured, p)),
         Fmt(ours.wall_ms)});
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E4", "Table 1 — tree queries",
      "The Figure 1/2/3 queries on random instances of growing size.\n"
      "(Bounds are per-relation-N approximations; shapes, not constants,\n"
      "are the comparison target.)");

  const int p = 32;
  using Gen = std::function<TreeInstance<S>(mpc::Cluster&)>;

  std::vector<Gen> fig2;
  for (std::int64_t tuples : {80, 160, 320}) {
    fig2.push_back([tuples](mpc::Cluster& c) {
      return GenTreeRandom<S>(c, Fig2Query(), tuples, tuples, 3);
    });
  }
  RunSweep("Figure 2 query (15 relations, 6 twigs)", p, fig2);

  // Block-structured Figure 3 twig: within a block, every hub value of
  // B1/B2 connects the same small sets of output values, so the full join
  // is ~(hub width) times larger than OUT — the collapse the paper's
  // aggregation-aware algorithm exploits and Yannakakis cannot.
  auto fig3_blocks = [](mpc::Cluster& c, std::int64_t blocks) {
    JoinTree q({{5, 14}, {14, 6}, {14, 15}, {15, 7}, {15, 16}, {16, 8}},
               {5, 6, 7, 8});
    // Asymmetric sides: the B1-side arms branch heavily (x(b1) = 144
    // >> sqrt(OUT)), the B2 side is thin — the Lemma 4/15 regime where
    // folding and the heavy/light split pay off.
    constexpr std::int64_t kSide = 12;   // B1-arm output values per block
    constexpr std::int64_t kThin = 2;    // B2-arm output values per block
    constexpr std::int64_t kHub = 10;    // B1/B2/C width per block
    Rng rng(17);
    std::vector<Relation<S>> rels;
    auto bipartite = [&](AttrId u, AttrId v, std::int64_t du,
                         std::int64_t dv) {
      Relation<S> rel(Schema{u, v});
      for (std::int64_t blk = 0; blk < blocks; ++blk) {
        for (std::int64_t i = 0; i < du; ++i) {
          for (std::int64_t j = 0; j < dv; ++j) {
            rel.Add(Row{blk * du + i, blk * dv + j},
                    internal_workload::RandomWeight<S>(rng, 10));
          }
        }
      }
      return rel;
    };
    TreeInstance<S> instance{q, {}};
    instance.relations.push_back(
        Distribute(c, bipartite(5, 14, kSide, kHub)));
    instance.relations.push_back(
        Distribute(c, bipartite(14, 6, kHub, kSide)));
    instance.relations.push_back(
        Distribute(c, bipartite(14, 15, kHub, kHub)));
    instance.relations.push_back(
        Distribute(c, bipartite(15, 7, kHub, kThin)));
    instance.relations.push_back(
        Distribute(c, bipartite(15, 16, kHub, kHub)));
    instance.relations.push_back(
        Distribute(c, bipartite(16, 8, kHub, kThin)));
    return instance;
  };
  std::vector<Gen> fig3;
  for (std::int64_t blocks : {10, 20, 40}) {
    fig3.push_back([&fig3_blocks, blocks](mpc::Cluster& c) {
      return fig3_blocks(c, blocks);
    });
  }
  RunSweep("Figure 3 general twig (2 skeleton attributes, block data)", p,
           fig3);

  std::vector<Gen> fig1;
  for (std::int64_t tuples : {100, 200, 400}) {
    fig1.push_back([tuples](mpc::Cluster& c) {
      return GenTreeRandom<S>(c, Fig1StarLikeQuery(), tuples, (tuples * 7) / 10, 7);
    });
  }
  RunSweep("Figure 1 star-like query (Lemma 7)", p, fig1);
  return 0;
}
