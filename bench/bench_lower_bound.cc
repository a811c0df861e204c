// E6 — Theorems 2 & 3 (lower bounds).
//
// Runs the Theorem 1 algorithm on the §3.3 hard instances and reports the
// measured load next to the matching lower-bound expression: the ratio
// must stay bounded by a constant across the sweep — i.e. the algorithm is
// tight on its own hard instances, which is how optimality manifests
// empirically.

#include <cstdint>
#include <iostream>

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
  const int p = 32;

  bench::PrintHeader(
      "E6a", "Theorem 2 hard instance",
      "R1 = {a} x dom(B), R2 = {b1,b2} x dom(C): every output needs two\n"
      "specific tuples to meet; lower bound Omega((N1+N2)/p).");
  {
    TablePrinter table({"N1", "N2", "OUT", "L_measured", "LB=(N1+N2)/p",
                        "ratio"});
    for (std::int64_t n2 : {2000, 8000, 32000}) {
      const std::int64_t n1 = n2 / 4;
      std::int64_t out = 0;
      bench::RunResult r = bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenLowerBoundThm2<S>(c, n1, n2);
        auto result = MatMul(c, std::move(instance.relations[0]),
                             std::move(instance.relations[1]));
        out = result.TotalSize();
      });
      const double lb = static_cast<double>(n1 + n2) / p;
      table.AddRow({Fmt(n1), Fmt(n2), Fmt(out), Fmt(r.stats.max_load), Fmt(lb),
                    bench::Ratio(static_cast<double>(r.stats.max_load), lb)});
    }
    table.Print(std::cout);
    std::cout << std::endl;
  }

  bench::PrintHeader(
      "E6b", "Theorem 3 hard instance",
      "Complete bipartite R1 = dom(A) x dom(B), R2 = dom(B) x dom(C) with\n"
      "the Theorem 3 domain sizes; lower bound\n"
      "Omega(min{sqrt(N1 N2/p), (N1 N2)^{1/3} OUT^{1/3}/p^{2/3}}).\n"
      "A bounded measured/LB ratio across the sweep demonstrates the\n"
      "algorithm is optimal on its own hard instances.");
  {
    TablePrinter table(
        {"N1", "N2", "OUT", "L_measured", "LB", "ratio"});
    const std::int64_t n = 10000;
    for (std::int64_t out : {1024, 16384, 262144, 4194304}) {
      std::int64_t out_measured = 0;
      std::int64_t n1 = 0, n2 = 0;
      bench::RunResult r = bench::Measure(p, 1, [&](mpc::Cluster& c) {
        auto instance = GenLowerBoundThm3<S>(c, n, n, out);
        n1 = instance.relations[0].TotalSize();
        n2 = instance.relations[1].TotalSize();
        auto result = MatMul(c, std::move(instance.relations[0]),
                             std::move(instance.relations[1]));
        out_measured = result.TotalSize();
      });
      const double lb = plan::MatMulLowerBound(n1, n2, out_measured, p);
      table.AddRow({Fmt(n1), Fmt(n2), Fmt(out_measured), Fmt(r.stats.max_load),
                    Fmt(lb),
                    bench::Ratio(static_cast<double>(r.stats.max_load), lb)});
    }
    table.Print(std::cout);
    std::cout << std::endl;
  }
  return 0;
}
