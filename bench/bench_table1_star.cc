// E3 — Table 1, row "Star".
//
// Distributed Yannakakis (load O(N/p + N*OUT^{1-1/n}/p)) against the §5
// algorithm (O((N*OUT/p)^{2/3} + N*sqrt(OUT)/p + (N+OUT)/p), Theorem 5),
// sweeping OUT and the arity n on block-structured stars, plus a skewed
// random sweep that populates several permutation classes B_φ.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/algorithms/star_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

template <typename Gen>
void RunSweep(const std::string& title, int p, int arity,
              const std::vector<Gen>& gens, const std::string& sweep_tag,
              std::vector<bench::BenchJsonEntry>* json_entries) {
  std::cout << title << " (p = " << p << ")\n";
  TablePrinter table({"n", "N_per_rel", "OUT", "L_yannakakis", "L_theorem5",
                      "speedup", "bound_yann", "bound_thm5", "ms_thm5"});
  int config_index = 0;
  for (const auto& gen : gens) {
    std::int64_t n_rel = 0;
    std::int64_t out_measured = 0;
    bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = gen(c);
      n_rel = instance.relations[0].TotalSize();
      auto r = YannakakisJoinAggregate(c, std::move(instance));
      out_measured = r.TotalSize();
    });
    bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = gen(c);
      StarQueryAggregate(c, std::move(instance));
    });
    table.AddRow(
        {Fmt(static_cast<std::int64_t>(arity)), Fmt(n_rel),
         Fmt(out_measured), Fmt(yann.stats.max_load), Fmt(ours.stats.max_load),
         bench::Ratio(static_cast<double>(yann.stats.max_load),
                      static_cast<double>(ours.stats.max_load)),
         Fmt(plan::YannakakisStarBound(n_rel, out_measured, arity, p)),
         Fmt(plan::NewLineStarBound(n_rel, out_measured, p)),
         Fmt(ours.wall_ms)});
    const std::pair<const char*, const bench::RunResult*> algos[] = {
        {"yannakakis", &yann}, {"thm5", &ours}};
    for (const auto& [algo, run] : algos) {
      bench::BenchJsonEntry entry;
      entry.experiment = "E3";
      entry.name = sweep_tag + "/arity=" + std::to_string(arity) + "/cfg=" +
                   std::to_string(config_index) +
                   "/OUT=" + std::to_string(out_measured) + "/" + algo;
      entry.n = n_rel * arity;
      entry.p = p;
      entry.threads = ParallelForThreads();
      entry.result = *run;
      json_entries->push_back(std::move(entry));
    }
    ++config_index;
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E3", "Table 1 — star queries",
      "Block stars sweeping OUT (per-block OUT = side_arm^n); skewed random\n"
      "stars exercise multiple permutation classes.");

  const int p = 64;
  using Gen = std::function<TreeInstance<S>(mpc::Cluster&)>;
  std::vector<bench::BenchJsonEntry> json_entries;

  std::vector<Gen> out_sweep;
  for (std::int64_t side_arm : {2, 4, 8, 14}) {
    StarBlockConfig cfg;
    cfg.arity = 3;
    cfg.blocks = 8;
    cfg.side_arm = side_arm;
    cfg.side_b = 36;
    out_sweep.push_back(
        [cfg](mpc::Cluster& c) { return GenStarBlocks<S>(c, cfg); });
  }
  RunSweep<Gen>("Sweep OUT at fixed B width (n = 3)", p, 3, out_sweep,
                "out-sweep", &json_entries);

  for (int arity : {3, 4}) {
    std::vector<Gen> arity_sweep;
    StarBlockConfig cfg;
    cfg.arity = arity;
    cfg.blocks = 8;
    cfg.side_arm = 5;
    cfg.side_b = 24;
    arity_sweep.push_back(
        [cfg](mpc::Cluster& c) { return GenStarBlocks<S>(c, cfg); });
    RunSweep<Gen>("Arity n = " + std::to_string(arity), p, arity,
                  arity_sweep, "arity-sweep", &json_entries);
  }

  std::vector<Gen> skewed;
  for (double skew : {0.0, 0.3, 0.6}) {
    skewed.push_back([skew](mpc::Cluster& c) {
      // Small arm domains: many B values produce the same output
      // combination, so OUT << J -- the paper's improvement regime.
      return GenStarRandom<S>(c, 3, 3000, 25, 150, skew, 11);
    });
  }
  RunSweep<Gen>("Skewed random stars (Zipf on B)", p, 3, skewed, "skewed",
                &json_entries);

  return bench::WriteBenchJson("E3", json_entries) ? 0 : 1;
}
