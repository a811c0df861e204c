// E5 + E9 — the price of resilience, then what fine-grained recovery
// saves. Both experiments measure the same plan::PlanAndRun call on the
// same matmul and line workloads at p = 16, under different execution
// options.
//
// E5 (checkpoint and recovery overhead):
//   baseline     resilience off (the fast path: no checkpoints, no
//                fault schedule, no budget)
//   checkpoint   round-boundary replication every 2 rounds, no faults —
//                the steady-state insurance premium
//   faulted      full deterministic fault schedule (fail-stop crash +
//                straggler + corrupted message) with replay from the
//                checkpoint — what an actual failure costs end to end
// recovery_comm isolates the resilience traffic inside total_comm;
// critical_path shows the straggler stretching wall-clock that max_load
// cannot see.
//
// E9 (recovery granularity), two pairs with identical fault schedules:
//   replay / resume     a fail-stop crash pinned past the first interval
//                       checkpoint; replay restarts from the input
//                       snapshot and re-charges every algorithm round,
//                       resume fast-forwards over the rounds the latest
//                       interval checkpoint covers (Cluster::BeginAttempt)
//   passive / rebalance two 6x stragglers; passive stretches the
//                       straggled round, rebalance ships the victim's
//                       round load onto the other live servers in a
//                       charged re-balance round (straggle threshold 4)
// The resume rows must show strictly fewer charged rounds and strictly
// less recovery_comm than replay for every workload.
//
// Outputs are bit-identical across all configurations
// (tests/fault_tolerance_test.cc asserts this; here we only price it).

#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/plan/executor.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

constexpr int kP = 16;

struct Workload {
  std::string name;
  std::int64_t n;
  std::function<TreeInstance<S>(mpc::Cluster&)> make;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;
  workloads.push_back(
      {"matmul", 20000, [](mpc::Cluster& c) {
         return GenMatMulBlocks<S>(
             c, MatMulBlockConfig::FromTargets(20000, 4096, 8));
       }});
  workloads.push_back({"line", 4 * 6 * 16 * 16, [](mpc::Cluster& c) {
                         LineBlockConfig cfg;
                         cfg.arity = 3;
                         cfg.blocks = 6;
                         cfg.side_end = 16;
                         cfg.side_mid = 16;
                         return GenLineBlocks<S>(c, cfg);
                       }});
  return workloads;
}

// One measured PlanAndRun: the run's ledger and the executor's recovery
// decisions.
struct Run {
  bench::RunResult result;
  plan::RecoveryReport report;
};

Run PlanAndMeasure(const Workload& w, const plan::ExecutionOptions& options) {
  Run run;
  run.result = bench::Measure(kP, 1, [&](mpc::Cluster& c) {
    const auto exec =
        plan::PlanAndRun(c, w.make(c), plan::PlannerOptions{}, options);
    run.report = exec.plan.recovery;
  });
  return run;
}

bench::BenchJsonEntry Entry(const std::string& experiment,
                            const Workload& w, const std::string& config,
                            const bench::RunResult& result) {
  bench::BenchJsonEntry entry;
  entry.experiment = experiment;
  entry.name = w.name + "/" + config + "/p=" + std::to_string(kP);
  entry.n = w.n;
  entry.p = kP;
  entry.threads = ParallelForThreads();
  entry.result = result;
  return entry;
}

bool RunE5(const std::vector<Workload>& workloads) {
  bench::PrintHeader(
      "E5", "fault-tolerant runtime overhead",
      "plan::PlanAndRun with resilience off / checkpointing / a full fault "
      "schedule (crash + straggler + corruption, seed 7).");

  std::vector<std::pair<std::string, plan::ExecutionOptions>> configs;
  configs.emplace_back("baseline", plan::ExecutionOptions{});
  plan::ExecutionOptions checkpoint;
  checkpoint.checkpoint_interval = 2;
  configs.emplace_back("checkpoint", checkpoint);
  plan::ExecutionOptions faulted = checkpoint;
  faulted.faults.enabled = true;
  faulted.faults.seed = 7;
  configs.emplace_back("faulted", faulted);

  std::vector<bench::BenchJsonEntry> entries;
  TablePrinter table({"workload", "config", "max_load", "rounds",
                      "total_comm", "recovery_comm", "critical_path",
                      "load_vs_base", "comm_vs_base"});
  for (const Workload& w : workloads) {
    mpc::Cluster::Stats base;
    for (const auto& [name, options] : configs) {
      const Run run = PlanAndMeasure(w, options);
      const mpc::Cluster::Stats& s = run.result.stats;
      if (name == "baseline") base = s;
      table.AddRow(
          {w.name, name + " (x" + std::to_string(run.report.attempts) + ")",
           Fmt(s.max_load), Fmt(static_cast<std::int64_t>(s.rounds)),
           Fmt(s.total_comm), Fmt(s.recovery_comm), Fmt(s.critical_path),
           bench::Ratio(static_cast<double>(s.max_load),
                        static_cast<double>(base.max_load)),
           bench::Ratio(static_cast<double>(s.total_comm),
                        static_cast<double>(base.total_comm))});
      entries.push_back(Entry("E5", w, name, run.result));
    }
  }
  table.Print(std::cout);
  std::cout << std::endl;
  return bench::WriteBenchJson("E5", entries);
}

bool RunE9(const std::vector<Workload>& workloads) {
  bench::PrintHeader(
      "E9", "fine-grained recovery granularity",
      "crash pinned past the first interval checkpoint (interval 2): "
      "input-replay vs checkpoint-resume; straggler x6: passive stretch vs "
      "active re-balance.");

  plan::ExecutionOptions replay;
  replay.faults.enabled = true;
  replay.faults.seed = 7;
  replay.faults.crashes = 1;
  replay.faults.stragglers = 0;
  replay.faults.corruptions = 0;
  replay.faults.crash_rounds = {8};
  replay.checkpoint_interval = 2;
  plan::ExecutionOptions resume = replay;
  resume.resume_from_checkpoint = true;

  plan::ExecutionOptions passive;
  passive.faults.enabled = true;
  passive.faults.seed = 7;
  passive.faults.crashes = 0;
  passive.faults.stragglers = 2;
  passive.faults.corruptions = 0;
  passive.faults.straggle_min = 6.0;
  passive.faults.straggle_max = 6.0;
  plan::ExecutionOptions rebalance = passive;
  rebalance.straggle_threshold = 4.0;

  std::vector<bench::BenchJsonEntry> entries;
  TablePrinter table({"workload", "mode", "rounds", "recovery_comm",
                      "critical_path", "resumed", "rebal_comm",
                      "comm_vs_replay", "path_vs_passive"});
  const auto add = [&](const Workload& w, const std::string& mode,
                       const Run& run, const std::string& comm_ratio,
                       const std::string& path_ratio) {
    const mpc::Cluster::Stats& s = run.result.stats;
    table.AddRow({w.name, mode, Fmt(static_cast<std::int64_t>(s.rounds)),
                  Fmt(s.recovery_comm), Fmt(s.critical_path),
                  Fmt(static_cast<std::int64_t>(s.resumed_rounds)),
                  Fmt(s.rebalance_comm), comm_ratio, path_ratio});
    bench::BenchJsonEntry entry = Entry("E9", w, mode, run.result);
    entry.columns = {bench::IntColumn("resumes", s.resumes),
                     bench::IntColumn("resumed_rounds", s.resumed_rounds),
                     bench::IntColumn("rebalances", s.rebalances),
                     bench::IntColumn("rebalance_comm", s.rebalance_comm),
                     bench::IntColumn("replans", run.report.replans)};
    entries.push_back(std::move(entry));
  };
  for (const Workload& w : workloads) {
    const Run replay_run = PlanAndMeasure(w, replay);
    const Run resume_run = PlanAndMeasure(w, resume);
    add(w, "replay", replay_run, "1.00x", "-");
    add(w, "resume", resume_run,
        bench::Ratio(
            static_cast<double>(resume_run.result.stats.recovery_comm),
            static_cast<double>(replay_run.result.stats.recovery_comm)),
        "-");

    const Run passive_run = PlanAndMeasure(w, passive);
    const Run rebalance_run = PlanAndMeasure(w, rebalance);
    add(w, "passive", passive_run, "-", "1.00x");
    add(w, "rebalance", rebalance_run, "-",
        bench::Ratio(
            static_cast<double>(rebalance_run.result.stats.critical_path),
            static_cast<double>(passive_run.result.stats.critical_path)));
  }
  table.Print(std::cout);
  std::cout << std::endl;
  return bench::WriteBenchJson("E9", entries);
}

}  // namespace
}  // namespace parjoin

int main() {
  const std::vector<parjoin::Workload> workloads = parjoin::Workloads();
  const bool e5_written = parjoin::RunE5(workloads);
  const bool e9_written = parjoin::RunE9(workloads);
  return e5_written && e9_written ? 0 : 1;
}
