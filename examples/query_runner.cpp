// query_runner: run an arbitrary tree join-aggregate query from files.
//
// Usage:
//   example_query_runner [flags] <spec-file>
//   example_query_runner [flags] --demo[=<dir>]   (write + run a sample)
//
// Flags:
//   --json                       also dump the plan as JSON
//   --faults=<seed>              deterministic fault injection (crash +
//                                straggler + corrupted message per run)
//   --checkpoint-interval=<r>    replicate state every r rounds (r >= 0)
//   --resume                     after a crash, fast-forward the replay
//                                over the rounds the latest interval
//                                checkpoint covers instead of re-charging
//                                them (needs --checkpoint-interval > 0)
//   --straggle-threshold=<f>     actively re-balance injected straggles
//                                with delay factor >= f onto the other
//                                live servers (f > 0; default passive)
//   --load-budget-factor=<f>     abort rounds above f x predicted load and
//                                degrade onto the Yannakakis baseline
//                                (f > 0)
//   --replan                     on a load-budget abort, re-enter the
//                                planner with the measured load and run
//                                the cheapest remaining candidate instead
//                                of degrading immediately
//   --trace-out=<file>           write a parjoin-trace-v1 JSONL round
//                                trace of the execution
//   --profile=<file>             merge predicted-vs-measured samples from
//                                this run into a parjoin-profile-v1 store
//                                (created if missing)
//   --calibration=<file>         load a parjoin-calibration-v1 table and
//                                plan with profile-calibrated constants
//   --fit-calibration=<file>     after the run, fit the (updated) profile
//                                store into a calibration file (needs
//                                --profile)
//
// The spec grammar lives in serve/spec.h (shared with parjoind); this
// binary accepts CSV-path edge sources only — @name references need a
// parjoind registry. Relations are CSVs of "v1,v2,annotation" rows
// (counting semiring). The runner plans the query with the cost-based
// planner, executes the chosen algorithm via plan::PlanAndRun, prints the
// plan with predicted vs. measured load (and the recovery report when
// resilience is on), and writes the aggregated result. Malformed specs
// and CSVs exit 1 with the offending line; malformed flags exit 2 with
// usage — never a silent default, never an abort.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "parjoin/common/status.h"
#include "parjoin/obs/profile.h"
#include "parjoin/obs/trace.h"
#include "parjoin/plan/executor.h"
#include "parjoin/relation/io.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/serve/flags.h"
#include "parjoin/serve/spec.h"

namespace {

using S = parjoin::CountingSemiring;

// Observability file paths (all optional; empty = off): the shared ones
// plus this binary's calibration fit output.
struct ObsOptions : parjoin::serve::ObsFlags {
  std::string fit_calibration;
};

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--json] [--faults=<seed>] [--checkpoint-interval=<r>]"
               " [--resume] [--straggle-threshold=<f>]"
               " [--load-budget-factor=<f>] [--replan] [--trace-out=<file>]"
               " [--profile=<file>] [--calibration=<file>]"
               " [--fit-calibration=<file>]"
               " <spec-file> | --demo[=<dir>]\n";
  return 2;
}

int RunSpec(const parjoin::serve::QuerySpec& spec, bool dump_json,
            parjoin::plan::ExecutionOptions exec_options,
            const ObsOptions& obs) {
  std::vector<parjoin::QueryEdge> edges;
  for (const auto& e : spec.edges) edges.push_back({e.u, e.v});
  auto query = parjoin::JoinTree::Create(edges, spec.outputs);
  if (!query.ok()) {
    std::cerr << "error: invalid query: " << query.status() << "\n";
    return 1;
  }

  parjoin::mpc::Cluster cluster(spec.p);
  parjoin::TreeInstance<S> instance{std::move(query).value(), {}};
  for (const auto& e : spec.edges) {
    auto rel =
        parjoin::LoadRelationCsv<S>(e.source, parjoin::Schema{e.u, e.v});
    if (!rel.ok()) {
      std::cerr << "error: " << rel.status() << "\n";
      return 1;
    }
    std::cout << "  loaded " << e.source << ": " << rel->size()
              << " tuples\n";
    instance.relations.push_back(
        parjoin::Distribute(cluster, std::move(rel).value()));
  }
  if (const parjoin::Status valid = instance.ValidateStatus(); !valid.ok()) {
    std::cerr << "error: " << valid << "\n";
    return 1;
  }

  parjoin::plan::PlannerOptions planner_options;
  parjoin::plan::CalibrationTable calibration;
  if (!obs.calibration.empty()) {
    auto loaded = parjoin::obs::LoadCalibrationFile(obs.calibration);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status() << "\n";
      return 1;
    }
    calibration = std::move(loaded).value();
    planner_options.calibration = &calibration;
    std::cout << "  calibration: " << calibration.entries().size()
              << " factor(s) from " << obs.calibration << "\n";
  }
  parjoin::obs::ProfileStore profile;
  if (!obs.profile.empty()) {
    auto loaded = parjoin::obs::ProfileStore::LoadOrEmpty(obs.profile);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status() << "\n";
      return 1;
    }
    profile = std::move(loaded).value();
    exec_options.profile = &profile;
  }
  parjoin::obs::TraceRecorder trace("query_runner");
  if (!obs.trace_out.empty()) {
    trace.Annotate("p", std::to_string(spec.p));
    cluster.SetObserver(&trace);
  }

  auto exec = parjoin::plan::PlanAndRun(cluster, std::move(instance),
                                        planner_options, exec_options);
  std::cout << "\n" << exec.plan.ToText() << "\n";
  if (dump_json) std::cout << exec.plan.ToJson() << "\n\n";
  parjoin::Relation<S> local = exec.result.ToLocal();
  local.Normalize();

  const std::string result_path =
      spec.result_path.empty() ? "result.csv" : spec.result_path;
  if (const parjoin::Status saved =
          parjoin::SaveRelationCsv(result_path, local);
      !saved.ok()) {
    std::cerr << "error: " << saved << "\n";
    return 1;
  }
  const auto& xs = exec.plan.execution_stats;
  std::cout << "Result: " << local.size() << " tuples -> " << result_path
            << "\n"
            << parjoin::plan::PredictedVsMeasuredReport(exec.plan) << "\n"
            << "Cost: planning load " << exec.plan.planning_stats.max_load
            << " (" << exec.plan.planning_stats.rounds << " rounds), "
            << "execution load " << xs.max_load << " (" << xs.rounds
            << " rounds), " << xs.total_comm
            << " tuples moved, critical path " << xs.critical_path
            << " (p = " << spec.p << ")\n";
  if (xs.recovery_comm > 0 || exec.plan.recovery.attempts > 1) {
    const auto& rec = exec.plan.recovery;
    std::cout << "Recovery: " << rec.attempts << " attempt(s), "
              << xs.crashes << " crash(es), " << xs.retransmits
              << " retransmit(s), " << xs.recovery_comm
              << " recovery tuples"
              << (rec.degraded_to_baseline ? ", degraded to baseline" : "")
              << "\n";
    for (const std::string& event : rec.events) {
      std::cout << "  - " << event << "\n";
    }
  }
  if (!obs.trace_out.empty()) {
    if (const parjoin::Status saved = trace.WriteFile(obs.trace_out);
        !saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    std::cout << "Trace: " << trace.rounds().size() << " round(s), "
              << trace.events().size() << " event(s) -> " << obs.trace_out
              << "\n";
  }
  if (!obs.profile.empty()) {
    if (const parjoin::Status saved = profile.SaveFile(obs.profile);
        !saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    std::cout << "Profile: " << profile.cells().size() << " cell(s), "
              << profile.total_runs() << " run(s) -> " << obs.profile
              << "\n";
  }
  if (!obs.fit_calibration.empty()) {
    const parjoin::plan::CalibrationTable fitted =
        parjoin::obs::FitCalibration(profile);
    if (const parjoin::Status saved =
            parjoin::obs::SaveCalibrationFile(fitted, obs.fit_calibration);
        !saved.ok()) {
      std::cerr << "error: " << saved << "\n";
      return 1;
    }
    std::cout << "Calibration: " << fitted.entries().size()
              << " factor(s) -> " << obs.fit_calibration << "\n";
  }
  return 0;
}

int WriteDemoAndRun(const std::string& dir, bool dump_json,
                    const parjoin::plan::ExecutionOptions& exec_options,
                    const ObsOptions& obs) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "error: cannot create demo directory " << dir << ": "
              << ec.message() << "\n";
    return 1;
  }
  // A 3-chain: suppliers -> parts -> regions.
  {
    std::ofstream r1(dir + "/supplies.csv");
    for (int s = 0; s < 40; ++s) {
      for (int part = s % 5; part < 20; part += 5) {
        r1 << s << "," << part << ",1\n";
      }
    }
    std::ofstream r2(dir + "/ships_to.csv");
    for (int part = 0; part < 20; ++part) {
      for (int region = part % 3; region < 9; region += 3) {
        r2 << part << "," << region << "," << (1 + part % 4) << "\n";
      }
    }
  }
  {
    std::ofstream spec(dir + "/query.spec");
    spec << "# how many supply routes connect each (supplier, region)?\n"
         << "p 8\n"
         << "edge 0 1 " << dir << "/supplies.csv\n"
         << "edge 1 2 " << dir << "/ships_to.csv\n"
         << "output 0 2\n"
         << "result " << dir << "/routes.csv\n";
  }
  auto spec = parjoin::serve::ParseQuerySpecFile(dir + "/query.spec");
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status() << "\n";
    return 1;
  }
  std::cout << "Demo spec written to " << dir << "/query.spec\n\n";
  return RunSpec(*spec, dump_json, exec_options, obs);
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_json = false;
  bool demo = false;
  std::string demo_dir = "/tmp/parjoin_demo";
  parjoin::plan::ExecutionOptions exec_options;
  ObsOptions obs;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const parjoin::StatusOr<bool> shared =
        parjoin::serve::ParseSharedFlag(arg, &exec_options, &obs);
    if (!shared.ok()) {
      std::cerr << "error: " << shared.status().message() << "\n";
      return Usage(argv[0]);
    }
    if (*shared) continue;
    std::string value;
    if (arg == "--json") {
      dump_json = true;
    } else if (arg == "--demo") {
      demo = true;
    } else if (parjoin::serve::MatchFlag(arg, "demo", &value)) {
      demo = true;
      demo_dir = value;
    } else if (parjoin::serve::MatchFlag(arg, "fit-calibration", &value)) {
      if (value.empty()) {
        std::cerr << "error: --fit-calibration needs a file path\n";
        return Usage(argv[0]);
      }
      obs.fit_calibration = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return Usage(argv[0]);
    } else {
      args.push_back(arg);
    }
  }
  if (!obs.fit_calibration.empty() && obs.profile.empty()) {
    std::cerr << "error: --fit-calibration needs --profile\n";
    return Usage(argv[0]);
  }
  if (demo) {
    if (!args.empty()) {
      std::cerr << "error: --demo takes no spec file\n";
      return Usage(argv[0]);
    }
    return WriteDemoAndRun(demo_dir, dump_json, exec_options, obs);
  }
  if (args.size() != 1) {
    return Usage(argv[0]);
  }
  auto spec = parjoin::serve::ParseQuerySpecFile(args[0]);
  if (!spec.ok()) {
    std::cerr << "error: " << spec.status() << "\n";
    return 1;
  }
  for (const auto& e : spec->edges) {
    if (e.IsRef()) {
      std::cerr << "error: edge source '" << e.source
                << "' is a relation reference; @name sources need the "
                   "parjoind registry\n";
      return 1;
    }
  }
  return RunSpec(*spec, dump_json, exec_options, obs);
}
