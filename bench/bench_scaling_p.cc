// E11 — scalability in p.
//
// All Table 1 bounds are decreasing functions of p (N/p, sqrt(../p),
// ../p^{2/3}); a fixed instance swept over p = 4..1024 must show the
// measured loads decaying at the bound's rate. Reported: matmul
// (Theorem 1 vs Yannakakis) and a line query (Theorem 4 vs Yannakakis).

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/algorithms/line_query.h"
#include "parjoin/algorithms/matmul.h"
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
  bench::PrintHeader("E11", "load vs. p",
                     "Fixed instances; loads must decay with p at the "
                     "bound's rate.");

  {
    std::cout << "Matrix multiplication, N ~ 16,000, OUT ~ 16,384:\n";
    MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(16000, 16384, 8);
    TablePrinter table({"p", "L_yannakakis", "L_theorem1", "speedup",
                        "bound_thm1"});
    for (int p : {4, 16, 64, 256, 1024}) {
      bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenMatMulBlocks<S>(c, cfg);
        YannakakisJoinAggregate(c, std::move(instance));
      });
      bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenMatMulBlocks<S>(c, cfg);
        MatMul(c, std::move(instance.relations[0]),
               std::move(instance.relations[1]));
      });
      table.AddRow({Fmt(static_cast<std::int64_t>(p)), Fmt(yann.stats.max_load),
                    Fmt(ours.stats.max_load),
                    bench::Ratio(static_cast<double>(yann.stats.max_load),
                                 static_cast<double>(ours.stats.max_load)),
                    Fmt(plan::NewMatMulBound(cfg.n1(), cfg.n2(), cfg.out(),
                                              p))});
    }
    table.Print(std::cout);
    std::cout << std::endl;
  }

  {
    std::cout << "Line query (n = 3, fat middle):\n";
    LineBlockConfig cfg;
    cfg.arity = 3;
    cfg.blocks = 8;
    cfg.side_end = 6;
    cfg.side_mid = 40;
    TablePrinter table({"p", "L_yannakakis", "L_theorem4", "speedup"});
    for (int p : {4, 16, 64, 256}) {
      bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenLineBlocks<S>(c, cfg);
        YannakakisJoinAggregate(c, std::move(instance));
      });
      bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenLineBlocks<S>(c, cfg);
        LineQueryAggregate(c, std::move(instance));
      });
      table.AddRow({Fmt(static_cast<std::int64_t>(p)), Fmt(yann.stats.max_load),
                    Fmt(ours.stats.max_load),
                    bench::Ratio(static_cast<double>(yann.stats.max_load),
                                 static_cast<double>(ours.stats.max_load))});
    }
    table.Print(std::cout);
    std::cout << std::endl;
  }
  return 0;
}
