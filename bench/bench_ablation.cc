// Ablations of the design choices DESIGN.md calls out:
//
//  A1  Skew handling in the two-way join: heavy-value grids on vs. off.
//      Without grids, one hot join value concentrates its whole Cartesian
//      block on one server; the measured load must blow up accordingly.
//  A2  The heavy/light split in the §3.1 worst-case matmul vs. running
//      the light-light grid machinery alone conceptually — approximated
//      here by comparing against the Yannakakis join on the same skewed
//      instance (what you get with no degree-based decomposition at all).
//  A3  KMV sketch width k: estimate quality of k = 4 / 16 / 64 at equal
//      repetition counts (the paper needs any constant k; the ablation
//      shows the accuracy/space trade-off).

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/two_way_join.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/sketch/kmv.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

void AblateJoinSkewHandling() {
  std::cout << "A1: two-way join with/without heavy-value grids "
               "(p = 32)\n";
  TablePrinter table({"zipf_skew", "J", "L_with_grids", "L_without",
                      "penalty"});
  for (double skew : {0.0, 0.6, 1.0}) {
    auto make = [&](mpc::Cluster& c) {
      MatMulGenConfig cfg;
      cfg.n1 = cfg.n2 = 12000;
      cfg.dom_a = 3000;
      cfg.dom_b = 400;
      cfg.dom_c = 3000;
      cfg.skew_b = skew;
      cfg.seed = 3;
      return GenMatMulRandom<S>(c, cfg);
    };
    std::int64_t join_size = 0;
    bench::RunResult with = bench::Measure(32, 1, [&](mpc::Cluster& c) {
      auto instance = make(c);
      auto j = TwoWayJoin(c, instance.relations[0], instance.relations[1]);
      join_size = j.TotalSize();
    });
    bench::RunResult without = bench::Measure(32, 1, [&](mpc::Cluster& c) {
      auto instance = make(c);
      TwoWayJoinOptions options;
      options.handle_skew = false;
      TwoWayJoin(c, instance.relations[0], instance.relations[1], options);
    });
    table.AddRow({Fmt(skew), Fmt(join_size), Fmt(with.stats.max_load),
                  Fmt(without.stats.max_load),
                  bench::Ratio(static_cast<double>(without.stats.max_load),
                               static_cast<double>(with.stats.max_load))});
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

void AblateMatMulDecomposition() {
  std::cout << "A2: Theorem 1 decomposition vs. no decomposition "
               "(Yannakakis join+aggregate) on skewed instances (p = 32)\n";
  TablePrinter table({"zipf_skew", "OUT", "L_theorem1", "L_no_decomp",
                      "penalty"});
  for (double skew : {0.4, 0.8, 1.2}) {
    auto make = [&](mpc::Cluster& c) {
      MatMulGenConfig cfg;
      cfg.n1 = cfg.n2 = 10000;
      cfg.dom_a = 500;
      cfg.dom_b = 250;
      cfg.dom_c = 500;
      cfg.skew_b = skew;
      cfg.seed = 7;
      return GenMatMulRandom<S>(c, cfg);
    };
    std::int64_t out = 0;
    bench::RunResult ours = bench::Measure(32, 1, [&](mpc::Cluster& c) {
      auto instance = make(c);
      auto r = MatMul(c, std::move(instance.relations[0]),
                      std::move(instance.relations[1]));
      out = r.TotalSize();
    });
    bench::RunResult yann = bench::Measure(32, 1, [&](mpc::Cluster& c) {
      auto instance = make(c);
      YannakakisJoinAggregate(c, std::move(instance));
    });
    table.AddRow({Fmt(skew), Fmt(out), Fmt(ours.stats.max_load),
                  Fmt(yann.stats.max_load),
                  bench::Ratio(static_cast<double>(yann.stats.max_load),
                               static_cast<double>(ours.stats.max_load))});
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

template <int K>
double MedianKmvEstimate(std::int64_t truth, int repetitions) {
  std::vector<double> estimates;
  for (int rep = 1; rep <= repetitions; ++rep) {
    KmvT<K> sketch;
    SeededHash hash(static_cast<std::uint64_t>(rep) * 0x9e37 + K);
    for (std::int64_t i = 0; i < truth; ++i) {
      sketch.AddHash(hash(static_cast<std::uint64_t>(i)));
    }
    estimates.push_back(sketch.Estimate());
  }
  std::nth_element(estimates.begin(),
                   estimates.begin() + estimates.size() / 2, estimates.end());
  return estimates[estimates.size() / 2];
}

void AblateKmvWidth() {
  std::cout << "A3: KMV width k vs. estimate quality (median of 15 "
               "repetitions)\n";
  TablePrinter table({"true_distinct", "k=4", "k=16", "k=64"});
  for (std::int64_t truth : {500, 5000, 50000, 500000}) {
    auto cell = [&](double est) {
      return bench::Ratio(est, static_cast<double>(truth));
    };
    table.AddRow({Fmt(truth), cell(MedianKmvEstimate<4>(truth, 15)),
                  cell(MedianKmvEstimate<16>(truth, 15)),
                  cell(MedianKmvEstimate<64>(truth, 15))});
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

}  // namespace
}  // namespace parjoin

int main() {
  parjoin::bench::PrintHeader("A1-A3", "design-choice ablations",
                              "What the skew grids, the heavy/light "
                              "decomposition, and the sketch width buy.");
  parjoin::AblateJoinSkewHandling();
  parjoin::AblateMatMulDecomposition();
  parjoin::AblateKmvWidth();
  return 0;
}
