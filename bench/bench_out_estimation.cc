// E7 — §2.2 output-size estimation quality.
//
// The matrix-multiplication and line-query algorithms rely on a
// constant-factor approximation of OUT obtained with linear load (KMV
// chains + median boosting). This bench reports estimate/true ratios and
// the estimator's measured load across instance families, skew levels,
// and chain lengths.

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "parjoin/algorithms/reference.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/sketch/out_estimate.h"
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
      "E7", "§2.2 OUT estimation",
      "Estimate/true ratios (target: constant factor w.h.p.; the paper\n"
      "needs any constant) and the estimator's load vs. N/p (target:\n"
      "linear load, times the O(log N) repetition factor hidden in Õ).");

  TablePrinter table({"family", "n_chain", "N_total", "OUT_true", "OUT_est",
                      "ratio", "L_estimator", "N/p"});

  auto report = [&](const std::string& family, int chain_len,
                    auto make_instance, std::vector<AttrId> path) {
    std::int64_t n_total = 0, out_true = 0, out_est = 0;
    const bench::RunResult r = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = make_instance(c);
      n_total = instance.TotalInputSize();
      Relation<S> truth = EvaluateReference(instance);
      out_true = truth.size();
      OutEstimate est = EstimateChainOut(c, instance.relations, path);
      out_est = est.total;
    });
    table.AddRow({family, Fmt(static_cast<std::int64_t>(chain_len)),
                  Fmt(n_total), Fmt(out_true), Fmt(out_est),
                  bench::Ratio(static_cast<double>(out_est),
                               static_cast<double>(out_true)),
                  Fmt(r.stats.max_load), Fmt(n_total / p)});
  };

  for (double skew : {0.0, 0.5, 1.0}) {
    report("matmul skew=" + std::to_string(skew).substr(0, 3), 2,
           [&](mpc::Cluster& c) {
             MatMulGenConfig cfg;
             cfg.n1 = cfg.n2 = 20000;
             cfg.dom_a = 2000;
             cfg.dom_b = 500;
             cfg.dom_c = 4000;
             cfg.skew_b = skew;
             cfg.seed = 3;
             return GenMatMulRandom<S>(c, cfg);
           },
           {0, 1, 2});
  }

  for (int arity : {3, 4, 5}) {
    std::vector<AttrId> path;
    for (int i = 0; i <= arity; ++i) path.push_back(i);
    report("line uniform", arity,
           [&](mpc::Cluster& c) {
             return GenLineRandom<S>(c, arity, 8000, 900, 0.0, 7);
           },
           path);
  }

  {
    report("blocks (exact OUT)", 2,
           [&](mpc::Cluster& c) {
             MatMulBlockConfig cfg =
                 MatMulBlockConfig::FromTargets(20000, 40000, 16);
             return GenMatMulBlocks<S>(c, cfg);
           },
           {0, 1, 2});
  }

  table.Print(std::cout);
  std::cout << std::endl;
  return 0;
}
