// E1 — Table 1, row "Matrix Multiplication".
//
// Regenerates the paper's headline comparison: the distributed Yannakakis
// baseline (load O(N/p + N*sqrt(OUT)/p)) against the Theorem 1 algorithm
// (load O(N/p + min{sqrt(N1 N2/p), (N1 N2)^{1/3} OUT^{1/3}/p^{2/3}})),
// on block-structured sparse matrices sweeping OUT at fixed N, then
// sweeping N at fixed OUT. The measured loads should track the bound
// expressions and the paper's winner (the new algorithm) should win by a
// growing factor as OUT grows.

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/plan/executor.h"
#include "parjoin/algorithms/hypercube.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

void RunSweep(const std::string& title, int p,
              const std::vector<MatMulBlockConfig>& configs,
              const std::string& sweep_tag,
              std::vector<bench::BenchJsonEntry>* json_entries) {
  std::cout << title << " (p = " << p << ")\n";
  TablePrinter table({"N1", "N2", "OUT", "L_yannakakis", "L_hypercube",
                      "L_theorem1", "speedup", "bound_yann", "bound_thm1",
                      "rounds_thm1", "ms_thm1"});
  for (const auto& cfg : configs) {
    std::int64_t out_measured = 0;
    bench::RunResult yann = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenMatMulBlocks<S>(c, cfg);
      auto r = YannakakisJoinAggregate(c, std::move(instance));
      out_measured = r.TotalSize();
    });
    bench::RunResult hc = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenMatMulBlocks<S>(c, cfg);
      HyperCubeJoinAggregate(c, std::move(instance));
    });
    bench::RunResult ours = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto instance = GenMatMulBlocks<S>(c, cfg);
      MatMul(c, std::move(instance.relations[0]),
             std::move(instance.relations[1]));
    });
    table.AddRow({Fmt(cfg.n1()), Fmt(cfg.n2()), Fmt(out_measured),
                  Fmt(yann.stats.max_load), Fmt(hc.stats.max_load),
                  Fmt(ours.stats.max_load),
                  bench::Ratio(static_cast<double>(yann.stats.max_load),
                               static_cast<double>(ours.stats.max_load)),
                  Fmt(plan::YannakakisMatMulBound(cfg.n1() + cfg.n2(),
                                                   out_measured, p)),
                  Fmt(plan::NewMatMulBound(cfg.n1(), cfg.n2(), out_measured,
                                            p)),
                  Fmt(static_cast<std::int64_t>(ours.stats.rounds)),
                  Fmt(ours.wall_ms)});
    const std::pair<const char*, const bench::RunResult*> algos[] = {
        {"yannakakis", &yann}, {"hypercube", &hc}, {"thm1", &ours}};
    for (const auto& [algo, run] : algos) {
      bench::BenchJsonEntry entry;
      entry.experiment = "E1";
      entry.name = sweep_tag + "/N1=" + std::to_string(cfg.n1()) +
                   "/N2=" + std::to_string(cfg.n2()) +
                   "/OUT=" + std::to_string(out_measured) + "/" + algo;
      entry.n = cfg.n1() + cfg.n2();
      entry.p = p;
      entry.threads = ParallelForThreads();
      entry.result = *run;
      json_entries->push_back(std::move(entry));
    }
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

// E4: the same matmul sweeps routed through the cost-based planner
// (plan::PlanAndRun) instead of calling a fixed algorithm — the measured
// load of the planner's pick, with the shared cost model's prediction
// encoded in the entry name. Tracks whether planning overhead + choice
// quality hold up as the tree grows.
void RunPlannerSweep(const std::string& title, int p,
                     const std::vector<MatMulBlockConfig>& configs,
                     const std::string& sweep_tag,
                     std::vector<bench::BenchJsonEntry>* json_entries) {
  std::cout << title << " (planner-dispatched, p = " << p << ")\n";
  TablePrinter table({"N1", "N2", "OUT", "chosen", "L_predicted",
                      "L_measured", "L_planning", "rounds", "ms"});
  for (const auto& cfg : configs) {
    plan::PhysicalPlan chosen_plan;
    const bench::RunResult run = bench::Measure(p, 1, [&](mpc::Cluster& c) {
      chosen_plan = plan::PlanAndRun(c, GenMatMulBlocks<S>(c, cfg)).plan;
    });
    const std::int64_t predicted =
        static_cast<std::int64_t>(chosen_plan.predicted_load);
    table.AddRow({Fmt(cfg.n1()), Fmt(cfg.n2()), Fmt(chosen_plan.out_actual),
                  plan::AlgorithmName(chosen_plan.chosen), Fmt(predicted),
                  Fmt(chosen_plan.measured_load),
                  Fmt(chosen_plan.planning_stats.max_load),
                  Fmt(static_cast<std::int64_t>(run.stats.rounds)),
                  Fmt(run.wall_ms)});
    bench::BenchJsonEntry entry;
    entry.experiment = "E4";
    entry.name = sweep_tag + "/N1=" + std::to_string(cfg.n1()) +
                 "/N2=" + std::to_string(cfg.n2()) +
                 "/OUT=" + std::to_string(chosen_plan.out_actual) +
                 "/chosen=" + plan::AlgorithmName(chosen_plan.chosen) +
                 "/pred=" + std::to_string(predicted);
    entry.n = cfg.n1() + cfg.n2();
    entry.p = p;
    entry.threads = ParallelForThreads();
    entry.result = run;
    json_entries->push_back(std::move(entry));
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E1", "Table 1 — matrix multiplication",
      "Measured load (max tuples received by any server in any round) of\n"
      "distributed Yannakakis vs. the Theorem 1 algorithm; bound columns\n"
      "evaluate the Table 1 expressions with constant 1.");

  const int p = 64;
  std::vector<bench::BenchJsonEntry> json_entries;
  std::vector<MatMulBlockConfig> out_sweep;
  for (std::int64_t out : {512, 2048, 8192, 32768, 131072}) {
    out_sweep.push_back(MatMulBlockConfig::FromTargets(20000, out, 8));
  }
  RunSweep("Sweep OUT at N ~ 20,000", p, out_sweep, "out-sweep",
           &json_entries);

  std::vector<MatMulBlockConfig> n_sweep;
  for (std::int64_t n : {4000, 8000, 16000, 32000}) {
    n_sweep.push_back(MatMulBlockConfig::FromTargets(n, 4096, 8));
  }
  RunSweep("Sweep N at OUT ~ 4,096", p, n_sweep, "n-sweep", &json_entries);

  std::vector<MatMulBlockConfig> unbalanced;
  {
    // N1 != N2: the general Theorem 1 bound with unequal sizes.
    MatMulBlockConfig cfg;
    cfg.blocks = 8;
    cfg.side_a = 4;
    cfg.side_b = 40;
    cfg.side_c = 16;
    unbalanced.push_back(cfg);
    cfg.side_a = 2;
    cfg.side_b = 100;
    cfg.side_c = 25;
    unbalanced.push_back(cfg);
  }
  RunSweep("Unequal N1/N2", p, unbalanced, "unbalanced", &json_entries);

  std::vector<bench::BenchJsonEntry> planner_entries;
  RunPlannerSweep("Sweep OUT at N ~ 20,000", p, out_sweep, "out-sweep",
                  &planner_entries);
  RunPlannerSweep("Sweep N at OUT ~ 4,096", p, n_sweep, "n-sweep",
                  &planner_entries);
  RunPlannerSweep("Unequal N1/N2", p, unbalanced, "unbalanced",
                  &planner_entries);

  const bool e1_written = bench::WriteBenchJson("E1", json_entries);
  const bool e4_written = bench::WriteBenchJson("E4", planner_entries);
  return e1_written && e4_written ? 0 : 1;
}
