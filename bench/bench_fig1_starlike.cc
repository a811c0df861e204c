// E8 — Figure 1: the five-arm star-like query and its §6 reduction.
//
// Exercises exactly the query drawn in Figure 1 (arms of lengths
// 2,3,1,2,2 around B) and reports, per instance size: the number of
// non-empty (permutation x small/large) classes, the measured load of the
// §6 algorithm vs. the Yannakakis baseline, and the Lemma 7 bound.

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/algorithms/starlike_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  const int p = 32;
  bench::PrintHeader(
      "E8", "Figure 1 — star-like query reduction (§6)",
      "Query: B joins arms A1-C11-B, A2-C21-C22-B, A3-B, A4-C41-B,\n"
      "A5-C51-B; outputs {A1..A5}. The §6 algorithm splits dom(B) into\n"
      "(permutation, small/large) classes, reduces small classes to line\n"
      "queries and large classes to matrix multiplications.");

  JoinTree q = Fig1StarLikeQuery();
  std::cout << "Query: " << q.DebugString() << "\n\n";

  TablePrinter table({"tuples/rel", "N_total", "OUT", "L_yannakakis",
                      "L_lemma7", "speedup", "bound_lemma7", "ms"});
  for (std::int64_t tuples : {100, 200, 400, 800}) {
    const std::int64_t dom = std::max<std::int64_t>(8, (tuples * 7) / 10);
    std::int64_t n_total = 0, out_measured = 0;
    bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenTreeRandom<S>(c, Fig1StarLikeQuery(), tuples, dom, 3);
      n_total = instance.TotalInputSize();
      auto r = YannakakisJoinAggregate(c, std::move(instance));
      out_measured = r.TotalSize();
    });
    bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenTreeRandom<S>(c, Fig1StarLikeQuery(), tuples, dom, 3);
      StarLikeAggregate(c, std::move(instance));
    });
    table.AddRow(
        {Fmt(tuples), Fmt(n_total), Fmt(out_measured), Fmt(yann.stats.max_load),
         Fmt(ours.stats.max_load),
         bench::Ratio(static_cast<double>(yann.stats.max_load),
                      static_cast<double>(ours.stats.max_load)),
         Fmt(plan::NewLineStarBound(tuples, out_measured, p)),
         Fmt(ours.wall_ms)});
  }
  table.Print(std::cout);
  std::cout << std::endl;
  return 0;
}
