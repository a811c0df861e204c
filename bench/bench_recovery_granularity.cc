// E9 — fine-grained recovery: what resuming from an interval checkpoint
// saves over replaying from the input snapshot.
//
// Two recovery modes for the same pinned fail-stop crash (placed past the
// first interval checkpoint, so a replicated resume point exists):
//   replay   the attempt restarts from the restored input snapshot and
//            re-charges every algorithm round from round 1
//   resume   the attempt fast-forwards over the rounds the latest interval
//            checkpoint covers (Cluster::BeginAttempt); elided rounds
//            charge nothing
// plus a straggler pair pricing active re-balancing against the passive
// critical-path stretch:
//   passive  the injected delay factor stretches the straggled round
//   rebalance the victim's round load ships onto the other live servers
//            in a charged re-balance round (straggle threshold armed)
//
// Outputs are bit-identical across all modes (tests/fault_tolerance_test.cc
// asserts this; here we only price the difference). The resume rows must
// show strictly fewer charged rounds and strictly less recovery_comm than
// replay for every workload — that is the E9 acceptance row.

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

struct Workload {
  std::string name;
  std::int64_t n;
  std::function<TreeInstance<S>(mpc::Cluster&)> make;
};

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  const int p = 16;
  bench::PrintHeader(
      "E9", "fine-grained recovery granularity",
      "crash pinned past the first interval checkpoint (interval 2): "
      "input-replay vs checkpoint-resume; straggler x6: passive stretch vs "
      "active re-balance.");

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

  std::vector<bench::BenchJsonEntry> json_entries;
  TablePrinter table({"workload", "mode", "rounds", "recovery_comm",
                      "critical_path", "resumed", "rebal_comm",
                      "comm_vs_replay", "path_vs_passive"});

  auto run = [&](const Workload& w, const plan::ExecutionOptions& options,
                 plan::RecoveryReport* report,
                 mpc::Cluster::Stats* stats) {
    return bench::Measure(p, 1, [&](mpc::Cluster& c) {
      auto exec = plan::PlanAndRun(c, w.make(c), plan::PlannerOptions{},
                                   options);
      *report = exec.plan.recovery;
      *stats = exec.plan.execution_stats;
    });
  };
  auto add_entry = [&](const Workload& w, const std::string& mode,
                       const bench::RunResult& r,
                       const plan::RecoveryReport& report,
                       const mpc::Cluster::Stats& stats) {
    bench::BenchJsonEntry entry;
    entry.experiment = "E9";
    entry.name = w.name + "/" + mode + "/p=" + std::to_string(p);
    entry.n = w.n;
    entry.p = p;
    entry.threads = ParallelForThreads();
    entry.result = r;
    entry.recovery.present = true;
    entry.recovery.resumes = stats.resumes;
    entry.recovery.resumed_rounds = stats.resumed_rounds;
    entry.recovery.rebalances = stats.rebalances;
    entry.recovery.rebalance_comm = stats.rebalance_comm;
    entry.recovery.replans = report.replans;
    json_entries.push_back(entry);
  };

  for (const Workload& w : workloads) {
    // --- crash recovery: input-replay vs checkpoint-resume ---
    plan::ExecutionOptions crash;
    crash.faults.enabled = true;
    crash.faults.seed = 7;
    crash.faults.crashes = 1;
    crash.faults.stragglers = 0;
    crash.faults.corruptions = 0;
    crash.faults.crash_rounds = {8};
    crash.checkpoint_interval = 2;

    plan::RecoveryReport replay_report, resume_report;
    mpc::Cluster::Stats replay_stats, resume_stats;
    const bench::RunResult replay =
        run(w, crash, &replay_report, &replay_stats);
    crash.resume_from_checkpoint = true;
    const bench::RunResult resume =
        run(w, crash, &resume_report, &resume_stats);

    table.AddRow({w.name, "replay", Fmt(static_cast<std::int64_t>(
                                        replay.rounds)),
                  Fmt(replay.recovery_comm), Fmt(replay.critical_path),
                  "0", "0", "1.00x", "-"});
    table.AddRow(
        {w.name, "resume",
         Fmt(static_cast<std::int64_t>(resume.rounds)),
         Fmt(resume.recovery_comm), Fmt(resume.critical_path),
         Fmt(static_cast<std::int64_t>(resume_stats.resumed_rounds)), "0",
         bench::Ratio(static_cast<double>(resume.recovery_comm),
                      static_cast<double>(replay.recovery_comm)),
         "-"});
    add_entry(w, "replay", replay, replay_report, replay_stats);
    add_entry(w, "resume", resume, resume_report, resume_stats);

    // --- stragglers: passive stretch vs active re-balance ---
    plan::ExecutionOptions straggle;
    straggle.faults.enabled = true;
    straggle.faults.seed = 7;
    straggle.faults.crashes = 0;
    straggle.faults.stragglers = 2;
    straggle.faults.corruptions = 0;
    straggle.faults.straggle_min = 6.0;
    straggle.faults.straggle_max = 6.0;

    plan::RecoveryReport passive_report, rebalance_report;
    mpc::Cluster::Stats passive_stats, rebalance_stats;
    const bench::RunResult passive =
        run(w, straggle, &passive_report, &passive_stats);
    straggle.straggle_threshold = 4.0;
    const bench::RunResult rebalance =
        run(w, straggle, &rebalance_report, &rebalance_stats);

    table.AddRow({w.name, "passive",
                  Fmt(static_cast<std::int64_t>(passive.rounds)),
                  Fmt(passive.recovery_comm), Fmt(passive.critical_path),
                  "0", "0", "-", "1.00x"});
    table.AddRow(
        {w.name, "rebalance",
         Fmt(static_cast<std::int64_t>(rebalance.rounds)),
         Fmt(rebalance.recovery_comm), Fmt(rebalance.critical_path), "0",
         Fmt(rebalance_stats.rebalance_comm), "-",
         bench::Ratio(static_cast<double>(rebalance.critical_path),
                      static_cast<double>(passive.critical_path))});
    add_entry(w, "passive", passive, passive_report, passive_stats);
    add_entry(w, "rebalance", rebalance, rebalance_report, rebalance_stats);
  }
  table.Print(std::cout);
  std::cout << std::endl;

  const std::string json_path = bench::BenchJsonPath();
  std::string error;
  if (bench::UpdateBenchJson(json_path, "E9", json_entries, &error)) {
    std::cout << "wrote " << json_entries.size() << " E9 entries to "
              << json_path << "\n";
  } else {
    std::cerr << "BENCH json: " << error << "\n";
  }
  return 0;
}
