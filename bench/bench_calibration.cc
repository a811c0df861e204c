// E8 — profile-driven planner calibration (obs/profile.h).
//
// The planner ranks candidates by constant-1 Table 1 bounds; the
// implementations hide different constant factors, so near a crossover
// the unit-constant ranking can pick the measured loser. E8 closes the
// loop: a training sweep runs EVERY candidate on matmul block instances,
// records predicted-vs-measured samples into an obs::ProfileStore, fits a
// plan::CalibrationTable (geometric-mean factors), then re-plans an
// evaluation sweep with and without the fitted factors against the
// measured ground truth (MeasureCandidates). An eval row is `corrected`
// when unit constants picked wrong and calibration picked the measured
// winner. At least one sweep point must be corrected — the crossover
// OUT* shifts cubically in the factor ratio, so a dense sweep around the
// unit crossover always exposes a flip unless the constants are equal.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/obs/profile.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/plan/executor.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

constexpr int kP = 16;
constexpr std::int64_t kN = 4096;
constexpr std::uint64_t kSeed = 7;

// Runs every candidate of the instance's plan and folds each one's
// predicted-vs-measured sample into the profile (the same math the
// executor's ExecutionProfileSink path records, but for all candidates
// instead of only the chosen one — training needs ratios per algorithm).
void TrainOn(std::int64_t out, obs::ProfileStore* profile) {
  MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(kN, out, 4, kSeed);
  mpc::Cluster cluster(kP, kSeed);
  TreeInstance<S> instance = GenMatMulBlocks<S>(cluster, cfg);
  plan::PlannerOptions options;
  options.out_override = cfg.out();
  plan::PhysicalPlan plan = plan::PlanQuery(cluster, instance, options);
  plan::MeasureCandidates(cluster, instance, &plan);
  for (const plan::Candidate& c : plan.candidates) {
    plan::ExecutionRecord rec;
    rec.algorithm = c.algorithm;
    rec.shape = plan.shape;
    rec.p = kP;
    rec.input_size = plan.stats.total_input;
    rec.predicted_load = c.predicted_load;  // constant-1: no calibration
    rec.measured_load = c.measured_load;
    profile->RecordExecution(rec);
  }
}

std::string FmtFactor(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", f);
  return buf;
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E8", "profile-driven calibration",
      "Matmul blocks, N = " + Fmt(kN) + ", p = " + std::to_string(kP) +
          ": fit per-algorithm constants from a training sweep, then show "
          "the calibrated planner matching the measured winner across the "
          "crossover where unit constants mispick.");

  // --- Training: every candidate on a coarse OUT sweep -> profile -> fit.
  obs::ProfileStore profile;
  for (std::int64_t out : {256, 1024, 4096, 16384, 65536, 262144}) {
    TrainOn(out, &profile);
  }
  const plan::CalibrationTable calibration = obs::FitCalibration(profile);

  std::cout << "Fitted factors (" << profile.total_runs()
            << " training runs):\n";
  TablePrinter factors({"algorithm", "shape", "factor", "runs"});
  for (const auto& e : calibration.entries()) {
    factors.AddRow({plan::AlgorithmName(e.algorithm),
                    e.has_shape ? QueryShapeName(e.shape) : "*",
                    FmtFactor(e.factor), Fmt(e.runs)});
  }
  factors.Print(std::cout);
  std::cout << "\n";

  // --- Evaluation: unit vs calibrated plan vs measured ground truth.
  TablePrinter table({"OUT", "chosen_unit", "chosen_calibrated",
                      "measured_best", "corrected", "calib_factor"});
  std::vector<bench::BenchJsonEntry> json_entries;
  int corrected_total = 0;
  int wrong_unit = 0;
  for (std::int64_t out :
       {2048, 4096, 8192, 16384, 32768, 65536, 131072}) {
    MatMulBlockConfig cfg =
        MatMulBlockConfig::FromTargets(kN, out, 4, kSeed);
    mpc::Cluster cluster(kP, kSeed);
    TreeInstance<S> instance = GenMatMulBlocks<S>(cluster, cfg);
    plan::PlannerOptions unit_options;
    unit_options.out_override = cfg.out();
    plan::PhysicalPlan unit_plan =
        plan::PlanQuery(cluster, instance, unit_options);

    plan::PlannerOptions calibrated_options = unit_options;
    calibrated_options.calibration = &calibration;
    plan::PhysicalPlan plan =
        plan::PlanQuery(cluster, instance, calibrated_options);
    plan::MeasureCandidates(cluster, instance, &plan);

    const plan::Candidate* best = &plan.candidates.front();
    for (const plan::Candidate& c : plan.candidates) {
      if (c.measured_load < best->measured_load) best = &c;
    }
    const bool unit_right = unit_plan.chosen == best->algorithm;
    const bool calibrated_right = plan.chosen == best->algorithm;
    const bool corrected = !unit_right && calibrated_right;
    wrong_unit += unit_right ? 0 : 1;
    corrected_total += corrected ? 1 : 0;
    const double chosen_factor =
        calibration.Factor(plan.chosen, plan.shape);
    table.AddRow({Fmt(cfg.out()), plan::AlgorithmName(unit_plan.chosen),
                  plan::AlgorithmName(plan.chosen),
                  plan::AlgorithmName(best->algorithm),
                  corrected ? "yes" : "-", FmtFactor(chosen_factor)});

    bench::BenchJsonEntry entry;
    entry.experiment = "E8";
    entry.name = "calibration/out=" + std::to_string(cfg.out()) +
                 "/p=" + std::to_string(kP);
    entry.n = cfg.n1() + cfg.n2();
    entry.p = kP;
    entry.threads = ParallelForThreads();
    entry.result = bench::Measure(kP, kSeed, [&](mpc::Cluster& c) {
      plan::DispatchAlgorithm(c, plan.chosen, GenMatMulBlocks<S>(c, cfg));
    });
    entry.columns = {
        bench::StringColumn("chosen_unit",
                            plan::AlgorithmName(unit_plan.chosen)),
        bench::StringColumn("chosen_calibrated",
                            plan::AlgorithmName(plan.chosen)),
        bench::StringColumn("measured_best",
                            plan::AlgorithmName(best->algorithm)),
        bench::IntColumn("corrected", corrected ? 1 : 0),
        bench::FixedColumn("calib_factor", chosen_factor, 4)};
    json_entries.push_back(std::move(entry));
  }
  table.Print(std::cout);
  std::cout << "\n"
            << wrong_unit << " unit-constant mispick(s), "
            << corrected_total << " corrected by calibration\n"
            << std::endl;

  return bench::WriteBenchJson("E8", json_entries) ? 0 : 1;
}
