// E5 — the min{...} crossover inside Theorem 1.
//
// At fixed N and p, the worst-case term sqrt(N1*N2/p) is flat in OUT while
// the output-sensitive term (N1*N2*OUT)^{1/3}/p^{2/3} grows; they cross at
// OUT* = sqrt(N1*N2*p). The sweep runs BOTH §3.1 and §3.2 on every
// instance plus the auto dispatcher, showing that (a) measured loads track
// their own bound curves and (b) the dispatcher picks the winner on each
// side of the crossover.

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  const int p = 16;
  const std::int64_t n = 10000;
  bench::PrintHeader(
      "E5", "Theorem 1 crossover",
      "Fixed N = 10,000, p = 16: predicted crossover at OUT* = sqrt(N^2*p)"
      " = " +
          Fmt(static_cast<std::int64_t>(
              std::sqrt(static_cast<double>(n) * n * p))) +
          ".");

  TablePrinter table({"OUT", "L_worst_case", "L_output_sensitive", "L_auto",
                      "auto_picks", "bound_wc", "bound_os"});
  for (std::int64_t out :
       {256, 1024, 4096, 16384, 65536, 262144, 1048576}) {
    MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(n, out, 4);
    auto run = [&](MatMulStrategy strategy) {
      return bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenMatMulBlocks<S>(c, cfg);
        MatMulOptions options;
        options.strategy = strategy;
        MatMul(c, std::move(instance.relations[0]),
               std::move(instance.relations[1]), options);
      });
    };
    bench::RunResult wc = run(MatMulStrategy::kWorstCase);
    bench::RunResult os = run(MatMulStrategy::kOutputSensitive);
    bench::RunResult autod = run(MatMulStrategy::kAuto);
    const double bound_wc = plan::MatMulWorstCaseTerm(cfg.n1(), cfg.n2(), p);
    const double bound_os =
        plan::MatMulOutputSensitiveTerm(cfg.n1(), cfg.n2(), cfg.out(), p);
    table.AddRow({Fmt(cfg.out()), Fmt(wc.stats.max_load),
                  Fmt(os.stats.max_load), Fmt(autod.stats.max_load),
                  bound_wc <= bound_os ? "worst-case" : "output-sensitive",
                  Fmt(bound_wc), Fmt(bound_os)});
  }
  table.Print(std::cout);
  std::cout << std::endl;
  return 0;
}
