// E12 — semiring generality (the §1 motivation).
//
// The same matrix multiplication runs under every shipped semiring. The
// algorithms never look at annotation values, so the communication pattern
// — and therefore the measured load and round count — must be identical
// across semirings; only the aggregated values differ. This is the
// empirical face of "the algorithm works over any semiring".

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

template <SemiringC S>
void RunOne(TablePrinter* table) {
  const int p = 32;
  std::int64_t out = 0;
  typename S::ValueType sample = S::Zero();
  bench::RunResult r = bench::Measure(p, 1, [&](mpc::Cluster& c) {
    MatMulGenConfig cfg;
    cfg.n1 = cfg.n2 = 20000;
    cfg.dom_a = 1500;
    cfg.dom_b = 300;
    cfg.dom_c = 1500;
    cfg.skew_b = 0.5;
    auto instance = GenMatMulRandom<S>(c, cfg);
    auto result = MatMul(c, std::move(instance.relations[0]),
                         std::move(instance.relations[1]));
    out = result.TotalSize();
    result.data.ForEach([&](const Tuple<S>& t) {
      sample = S::Plus(sample, t.w);  // fold so the work isn't elided
    });
  });
  table->AddRow({S::kName, Fmt(out), Fmt(r.stats.max_load),
                 Fmt(static_cast<std::int64_t>(r.stats.rounds)),
                 Fmt(r.wall_ms)});
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E12", "semiring generality",
      "Identical instance/algorithm under all semirings: load and rounds\n"
      "must match exactly (the algorithm is annotation-oblivious).");
  TablePrinter table({"semiring", "OUT", "load", "rounds", "ms"});
  RunOne<CountingSemiring>(&table);
  RunOne<BooleanSemiring>(&table);
  RunOne<MinPlusSemiring>(&table);
  RunOne<MaxPlusSemiring>(&table);
  RunOne<MaxMinSemiring>(&table);
  table.Print(std::cout);
  std::cout << std::endl;
  return 0;
}
