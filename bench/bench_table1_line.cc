// E2 — Table 1, row "Line".
//
// Distributed Yannakakis (load O(N/p + N*OUT/p) in the worst case, driven
// by the largest intermediate join J) against the §4 algorithm
// (O((N*OUT/p)^{2/3} + N*sqrt(OUT)/p + (N+OUT)/p), Theorem 4). Block
// chains with a fat middle make J >> OUT — the regime the paper's
// improvement targets — and the sweep varies OUT and the chain length n.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/algorithms/line_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

void RunSweep(const std::string& title, int p,
              const std::vector<LineBlockConfig>& configs,
              const std::string& sweep_tag,
              std::vector<bench::BenchJsonEntry>* json_entries) {
  std::cout << title << " (p = " << p << ")\n";
  // Two baselines: the literal 1981 Yannakakis (projection only at the
  // end — this is where the Table 1 N*OUT/p-style blowup manifests) and
  // the strong variant with aggregation pushdown after every join.
  TablePrinter table({"n", "N_per_rel", "OUT", "L_yann1981",
                      "L_yann_pushdown", "L_theorem4", "speedup_vs_1981",
                      "speedup_vs_strong", "bound_thm4", "ms_thm4"});
  for (const auto& cfg : configs) {
    std::int64_t n_rel = 0;
    std::int64_t out_measured = 0;
    bench::RunResult yann1981 = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenLineBlocks<S>(c, cfg);
      n_rel = instance.relations[0].TotalSize();
      YannakakisOptions options;
      options.aggregate_pushdown = false;
      auto r = YannakakisJoinAggregate(c, std::move(instance), options);
      out_measured = r.TotalSize();
    });
    bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenLineBlocks<S>(c, cfg);
      YannakakisJoinAggregate(c, std::move(instance));
    });
    bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenLineBlocks<S>(c, cfg);
      LineQueryAggregate(c, std::move(instance));
    });
    table.AddRow(
        {Fmt(static_cast<std::int64_t>(cfg.arity)), Fmt(n_rel),
         Fmt(out_measured), Fmt(yann1981.stats.max_load),
         Fmt(yann.stats.max_load), Fmt(ours.stats.max_load),
         bench::Ratio(static_cast<double>(yann1981.stats.max_load),
                      static_cast<double>(ours.stats.max_load)),
         bench::Ratio(static_cast<double>(yann.stats.max_load),
                      static_cast<double>(ours.stats.max_load)),
         Fmt(plan::NewLineStarBound(n_rel, out_measured, p)),
         Fmt(ours.wall_ms)});
    const std::pair<const char*, const bench::RunResult*> algos[] = {
        {"yann1981", &yann1981}, {"yannakakis", &yann}, {"thm4", &ours}};
    for (const auto& [algo, run] : algos) {
      bench::BenchJsonEntry entry;
      entry.experiment = "E2";
      entry.name = sweep_tag + "/arity=" + std::to_string(cfg.arity) +
                   "/ends=" + std::to_string(cfg.side_end) +
                   "/OUT=" + std::to_string(out_measured) + "/" + algo;
      entry.n = n_rel * cfg.arity;
      entry.p = p;
      entry.threads = ParallelForThreads();
      entry.result = *run;
      json_entries->push_back(std::move(entry));
    }
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E2", "Table 1 — line queries",
      "Fat-middle block chains: the intermediate join is much larger than\n"
      "OUT, the regime where the Theorem 4 algorithm improves on the\n"
      "Yannakakis baseline.");

  const int p = 64;
  std::vector<bench::BenchJsonEntry> json_entries;
  std::vector<LineBlockConfig> out_sweep;
  for (std::int64_t side_end : {2, 4, 8, 16}) {
    LineBlockConfig cfg;
    cfg.arity = 3;
    cfg.blocks = 8;
    cfg.side_end = side_end;
    cfg.side_mid = 48;  // fat middle: J ~ blocks * side_mid^2
    out_sweep.push_back(cfg);
  }
  RunSweep("Sweep OUT at fixed middle width (n = 3)", p, out_sweep,
           "out-sweep", &json_entries);

  std::vector<LineBlockConfig> arity_sweep;
  for (int arity : {3, 4, 5}) {
    LineBlockConfig cfg;
    cfg.arity = arity;
    cfg.blocks = 8;
    cfg.side_end = 6;
    cfg.side_mid = 28;
    arity_sweep.push_back(cfg);
  }
  RunSweep("Sweep chain length n", p, arity_sweep, "arity-sweep",
           &json_entries);

  // Hub chains: a few A2 hub values with degree >= sqrt(OUT) on both
  // sides (the Lemma 4 heavy regime). Yannakakis materializes h*m^2
  // intermediate tuples per block; the §4 heavy branch folds the chain
  // right-to-left and finishes with one output-sensitive matmul.
  std::cout << "Hub chains (heavy A2 values; n = 3, p = " << p << ")\n";
  TablePrinter hub_table({"m", "N_total", "OUT", "L_yannakakis",
                          "L_theorem4", "speedup", "ms_thm4"});
  for (std::int64_t m : {50, 100, 200}) {
    const std::int64_t hubs = 20, ends = 4, blocks = 4;
    auto make = [&](mpc::Cluster& c) {
      Rng rng(23);
      Relation<S> r1(Schema{0, 1}), r2(Schema{1, 2}), r3(Schema{2, 3});
      for (std::int64_t blk = 0; blk < blocks; ++blk) {
        for (std::int64_t a = 0; a < m; ++a) {
          for (std::int64_t h = 0; h < hubs; ++h) {
            r1.Add(Row{blk * m + a, blk * hubs + h},
                   internal_workload::RandomWeight<S>(rng, 10));
          }
        }
        for (std::int64_t h = 0; h < hubs; ++h) {
          for (std::int64_t mid = 0; mid < m; ++mid) {
            r2.Add(Row{blk * hubs + h, blk * m + mid},
                   internal_workload::RandomWeight<S>(rng, 10));
          }
        }
        for (std::int64_t mid = 0; mid < m; ++mid) {
          for (std::int64_t e = 0; e < ends; ++e) {
            r3.Add(Row{blk * m + mid, blk * ends + e},
                   internal_workload::RandomWeight<S>(rng, 10));
          }
        }
      }
      TreeInstance<S> instance{
          JoinTree({{0, 1}, {1, 2}, {2, 3}}, {0, 3}), {}};
      instance.relations.push_back(Distribute(c, std::move(r1)));
      instance.relations.push_back(Distribute(c, std::move(r2)));
      instance.relations.push_back(Distribute(c, std::move(r3)));
      return instance;
    };
    std::int64_t n_total = 0, out_measured = 0;
    bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = make(c);
      n_total = instance.TotalInputSize();
      auto r = YannakakisJoinAggregate(c, std::move(instance));
      out_measured = r.TotalSize();
    });
    bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = make(c);
      LineQueryAggregate(c, std::move(instance));
    });
    hub_table.AddRow({Fmt(m), Fmt(n_total), Fmt(out_measured),
                      Fmt(yann.stats.max_load), Fmt(ours.stats.max_load),
                      bench::Ratio(static_cast<double>(yann.stats.max_load),
                                   static_cast<double>(ours.stats.max_load)),
                      Fmt(ours.wall_ms)});
  }
  hub_table.Print(std::cout);
  std::cout << std::endl;

  return bench::WriteBenchJson("E2", json_entries) ? 0 : 1;
}
