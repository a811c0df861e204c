// The unified execution runtime: dispatches a planner-chosen Algorithm
// onto the library's entry points and reports predicted vs. measured load.
//
// TryExecuteWithRecovery is the one execution entry point: it runs a
// planned query and fills the plan's whole measured side. PlanAndRun is
// the one-call wrapper examples and benches use:
//   auto exec = plan::PlanAndRun(cluster, instance);
//   exec.plan.ToText() / exec.plan.ToJson() / exec.result
// The cluster's stats are phased: planning (the estimation rounds) and
// execution (the chosen algorithm) are recorded separately in the plan;
// after the call the cluster's live stats hold the execution phase only.
//
// Fault tolerance: with a non-default ExecutionOptions, inputs are
// checkpointed (charged), the chosen algorithm runs under the configured
// fault plan / load budget, and RoundAbort unwinds back into the executor
// for replay from the checkpoint (crash) or re-planning / degradation onto
// the Yannakakis baseline (budget). The recovery trail is reported in
// plan.recovery, its counters in plan.execution_stats; all resilience
// traffic lands in execution_stats.recovery_comm.

#ifndef PARJOIN_PLAN_EXECUTOR_H_
#define PARJOIN_PLAN_EXECUTOR_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "parjoin/common/stopwatch.h"

#include "parjoin/algorithms/hypercube.h"
#include "parjoin/algorithms/line_query.h"
#include "parjoin/algorithms/matmul.h"
#include "parjoin/algorithms/star_query.h"
#include "parjoin/algorithms/starlike_query.h"
#include "parjoin/algorithms/tree_query.h"
#include "parjoin/algorithms/yannakakis.h"
#include "parjoin/mpc/checkpoint.h"
#include "parjoin/mpc/faults.h"
#include "parjoin/plan/planner.h"
#include "parjoin/relation/ops.h"

namespace parjoin {
namespace plan {

// One completed execution, as the profile layer sees it: what the planner
// predicted for the algorithm that actually ran vs. what the ledger
// measured. `predicted_load` is the UNCALIBRATED constant-1 bound (the
// candidate's prediction divided back by its calib_factor) so fitted
// factors never feed into their own fit.
struct ExecutionRecord {
  Algorithm algorithm = Algorithm::kYannakakis;
  QueryShape shape = QueryShape::kTree;
  int p = 1;
  std::int64_t input_size = 0;      // N = total input tuples
  double predicted_load = 0;        // uncalibrated bound
  std::int64_t measured_load = 0;   // cluster stats().max_load
  double wall_ms = 0;               // wall time of the execution phase
};

// Observation seam for the profile store (src/parjoin/obs/profile.h
// implements it; plan/ stays free of an obs dependency). Executions are
// recorded from the charging thread only — no locking needed inside.
class ExecutionProfileSink {
 public:
  virtual ~ExecutionProfileSink() = default;
  virtual void RecordExecution(const ExecutionRecord& record) = 0;
};

// Resilience knobs for TryExecuteWithRecovery / PlanAndRun. All off by
// default: the default-constructed options run the fast path with zero
// overhead (no checkpoints, no fault schedule, no budget).
struct ExecutionOptions {
  mpc::FaultConfig faults;      // injection schedule (faults.enabled arms it)
  int checkpoint_interval = 0;  // rounds between replication rounds; 0 = off
  // Abort any round whose load exceeds factor × predicted_load and degrade
  // onto the Yannakakis baseline. 0 = off.
  double load_budget_factor = 0;
  // Dispatch attempts before the executor gives up with ResourceExhausted.
  int max_attempts = 8;
  // When set, every successful execution records a predicted-vs-measured
  // sample (strictly read-only: recording never changes outputs or
  // charged loads). Not owned.
  ExecutionProfileSink* profile = nullptr;
  // Fine-grained recovery: after a fail-stop crash, fast-forward the
  // replayed execution over the rounds the latest interval checkpoint
  // covers instead of re-charging them (mpc::Cluster::BeginAttempt).
  // Needs checkpoint_interval > 0 to have any effect.
  bool resume_from_checkpoint = false;
  // Injected straggle factors at or above this threshold are actively
  // re-balanced onto the other live servers (charged re-balance rounds)
  // instead of passively stretching the critical path. 0 = passive.
  double straggle_threshold = 0;
  // On a load-budget abort, re-enter the planner: penalize the aborted
  // candidate with its measured round load (through the calibration seam),
  // re-score, and continue with the cheapest remaining candidate from the
  // input checkpoint. Degrading onto Yannakakis stays the fallback once
  // the candidates are exhausted (or with this off, the only response).
  bool replan_on_budget_abort = false;
};

// Simulated exponential backoff before each crash replay, in rounds:
// base, 2·base, ... capped. Recorded in RecoveryReport::backoff_total,
// never slept.
inline constexpr std::int64_t kReplayBackoffBase = 1;
inline constexpr std::int64_t kReplayBackoffCap = 16;

// One-line "chosen X: predicted N, measured M (ratio R)" summary of an
// executed plan, for examples and bench logs.
std::string PredictedVsMeasuredReport(const PhysicalPlan& plan);

// Builds the profile sample for a finished execution and hands it to the
// options' sink (no-op without one). The prediction is de-calibrated via
// the executed candidate's calib_factor so the profile always stores
// measured-vs-constant-1 ratios.
inline void RecordProfiledExecution(const PhysicalPlan& plan,
                                    const ExecutionOptions& options,
                                    double wall_ms) {
  if (options.profile == nullptr) return;
  ExecutionRecord rec;
  rec.algorithm = plan.executed;
  rec.shape = plan.shape;
  rec.p = plan.stats.p;
  rec.input_size = plan.stats.total_input;
  rec.predicted_load = plan.predicted_load;
  if (const Candidate* c = plan.CandidateFor(plan.executed)) {
    rec.predicted_load = c->calib_factor > 0
                             ? c->predicted_load / c->calib_factor
                             : c->predicted_load;
  }
  rec.measured_load = plan.measured_load;
  rec.wall_ms = wall_ms;
  options.profile->RecordExecution(rec);
}

// Abort-time re-planning (ExecutionOptions::replan_on_budget_abort): after
// a load-budget abort, feed the measured round load back through the
// calibration seam as a penalty factor on the aborted candidate, re-score
// the plan's candidates, and pick the cheapest one not yet aborted this
// run. Returns false when every candidate has aborted (the caller falls
// back to the unbudgeted Yannakakis degrade). `penalties` and
// `aborted_algos` persist across calls so repeated aborts keep narrowing
// the field; the penalty only ever raises a factor (the abort proves the
// constant is at least that large).
inline bool ReplanAfterBudgetAbort(PhysicalPlan& plan,
                                   const mpc::RoundAbort& abort,
                                   Algorithm aborted,
                                   CalibrationTable* penalties,
                                   std::vector<Algorithm>* aborted_algos,
                                   Algorithm* next) {
  if (std::find(aborted_algos->begin(), aborted_algos->end(), aborted) ==
      aborted_algos->end()) {
    aborted_algos->push_back(aborted);
  }
  if (penalties->empty()) {
    // Seed from the candidates so re-scoring keeps whatever calibration
    // the planner already applied.
    for (const Candidate& c : plan.candidates) {
      penalties->Set(c.algorithm, plan.shape,
                     c.calib_factor > 0 ? c.calib_factor : 1.0);
    }
  }
  if (const Candidate* c = plan.CandidateFor(aborted)) {
    const double base = c->calib_factor > 0
                            ? c->predicted_load / c->calib_factor
                            : c->predicted_load;
    if (base > 0 && abort.round_load > 0) {
      const double measured = static_cast<double>(abort.round_load) / base;
      penalties->Set(aborted, plan.shape,
                     std::max(penalties->Factor(aborted, plan.shape),
                              measured));
    }
  }
  plan.candidates = ScoreCandidates(plan.shape, plan.stats, penalties);
  plan.calibrated = true;
  for (const Candidate& c : plan.candidates) {
    if (std::find(aborted_algos->begin(), aborted_algos->end(),
                  c.algorithm) == aborted_algos->end()) {
      *next = c.algorithm;
      return true;
    }
  }
  return false;
}

// Runs `a` on the instance. CHECK-fails when the algorithm does not apply
// to the instance's shape (use Applicable / the planner's candidates).
template <SemiringC S>
DistRelation<S> DispatchAlgorithm(mpc::Cluster& cluster, Algorithm a,
                                  TreeInstance<S> instance) {
  switch (a) {
    case Algorithm::kSingleRelation:
      CHECK_EQ(instance.query.num_edges(), 1);
      return AggregateByAttrs(cluster, instance.relations[0],
                              instance.query.output_attrs());
    case Algorithm::kYannakakis:
      return YannakakisJoinAggregate(cluster, std::move(instance));
    case Algorithm::kHyperCube:
      return HyperCubeJoinAggregate(cluster, std::move(instance));
    case Algorithm::kMatMulWorstCase:
    case Algorithm::kMatMulOutputSensitive: {
      CHECK_EQ(instance.query.num_edges(), 2);
      MatMulOptions options;
      options.strategy = a == Algorithm::kMatMulWorstCase
                             ? MatMulStrategy::kWorstCase
                             : MatMulStrategy::kOutputSensitive;
      return MatMul(cluster, std::move(instance.relations[0]),
                    std::move(instance.relations[1]), options);
    }
    case Algorithm::kLineTheorem4:
      return LineQueryAggregate(cluster, std::move(instance));
    case Algorithm::kStarTheorem5:
      return StarQueryAggregate(cluster, std::move(instance));
    case Algorithm::kStarLikeLemma7:
      return StarLikeAggregate(cluster, std::move(instance));
    case Algorithm::kTreeTheorem6:
      return TreeQueryAggregate(cluster, std::move(instance));
  }
  LOG(FATAL) << "unknown algorithm";
  return DistRelation<S>{};
}

template <SemiringC S>
struct PlanExecution {
  PhysicalPlan plan;
  DistRelation<S> result;
};

// Runs plan->chosen under the resilience protocol and fills the plan's
// measured side: executed, recovery, execution_stats and measured_load
// always; on success also out_actual and the executed candidate's
// measured_load. Expects the cluster's stats freshly reset (charges land in
// the execution phase).
//
// Protocol: with any resilience option set, the distributed inputs are
// checkpointed (one charged replication round per relation) and the fault
// plan and load budget are armed. The cluster rng is snapshotted, so a
// replay re-draws exactly the hash seeds of the aborted attempt. Then the
// algorithm is dispatched.
//  * RoundAbort{kServerCrash}: the cluster has already shrunk to p-1 live
//    servers; simulated backoff is recorded, the rng is rewound, the
//    inputs are restored from the checkpoint onto the survivors (charged),
//    and the attempt repeats. Stats accumulate across attempts — recovery
//    is not free and the ledger says so.
//  * RoundAbort{kLoadBudget}: the planner's prediction was exceeded by the
//    configured factor; the run re-plans (replan_on_budget_abort) or
//    degrades onto the Yannakakis baseline (which has no
//    candidate-specific tuning to mispredict) and continues unbudgeted.
//    Single-edge queries re-run their only algorithm instead.
// Without a resilience option nothing is checkpointed or armed, so no
// round can abort and the algorithm is dispatched exactly once.
//
// Exhausting max_attempts is a reportable outcome, not a bug: a serving
// process must survive one doomed query. The cluster's fault machinery is
// disarmed, the measured side is filled with the trail so far, and
// ResourceExhausted is returned.
template <SemiringC S>
StatusOr<DistRelation<S>> TryExecuteWithRecovery(
    mpc::Cluster& cluster, TreeInstance<S> instance,
    const ExecutionOptions& options, PhysicalPlan* plan) {
  const bool resilient = options.faults.enabled ||
                         options.checkpoint_interval > 0 ||
                         options.load_budget_factor > 0 ||
                         options.straggle_threshold > 0;
  Stopwatch exec_timer;
  const JoinTree query = instance.query;
  std::vector<Schema> schemas;
  std::vector<mpc::DistSnapshot<Tuple<S>>> snapshots;
  if (resilient) {
    cluster.SetCheckpointInterval(options.checkpoint_interval);
    cluster.SetStraggleThreshold(options.straggle_threshold);
    schemas.reserve(instance.relations.size());
    snapshots.reserve(instance.relations.size());
    for (const auto& rel : instance.relations) {
      schemas.push_back(rel.schema);
      snapshots.push_back(mpc::CheckpointDist(cluster, rel.data));
    }
    if (options.faults.enabled) cluster.EnableFaults(options.faults);
    if (options.load_budget_factor > 0 && plan->predicted_load > 0) {
      cluster.SetLoadBudget(static_cast<std::int64_t>(
          std::llround(options.load_budget_factor * plan->predicted_load)));
    }
  }
  const Rng rng_snapshot = cluster.rng();

  RecoveryReport& report = plan->recovery;
  Algorithm algo = plan->chosen;
  std::int64_t backoff = kReplayBackoffBase;
  // How many rounds the next replay may fast-forward over (the latest
  // interval checkpoint's coverage, read at crash time). Round snapshots
  // are algorithm-specific, so a re-planned algorithm always restarts from
  // the input checkpoint (resume 0).
  int resume_rounds = 0;
  // Measured penalty factors accumulated from budget aborts; fed back
  // through the calibration seam when re-planning.
  CalibrationTable abort_penalties;
  std::vector<Algorithm> aborted_algos;
  const auto finish_report = [&](int attempts) {
    cluster.SetLoadBudget(0);
    cluster.SetCheckpointInterval(0);
    cluster.SetStraggleThreshold(0);
    cluster.DisableFaults();
    report.attempts = attempts;
    report.events = cluster.fault_log();
    plan->executed = algo;
    plan->execution_stats = cluster.stats();
    plan->measured_load = plan->execution_stats.max_load;
  };
  for (int attempt = 1;; ++attempt) {
    if (attempt > options.max_attempts) {
      finish_report(options.max_attempts);
      return ResourceExhaustedError(
          std::string("recovery attempts exhausted for ") +
          AlgorithmName(algo) + " after " +
          std::to_string(options.max_attempts) + " attempt(s)");
    }
    try {
      DistRelation<S> result;
      if (attempt == 1 && algo == plan->chosen) {
        result = DispatchAlgorithm(cluster, algo, std::move(instance));
      } else {
        TreeInstance<S> replay{query, {}};
        replay.relations.reserve(snapshots.size());
        for (std::size_t i = 0; i < snapshots.size(); ++i) {
          replay.relations.push_back(DistRelation<S>{
              schemas[i], mpc::RestoreDist(cluster, snapshots[i])});
        }
        cluster.BeginAttempt(resume_rounds);
        result = DispatchAlgorithm(cluster, algo, std::move(replay));
      }
      finish_report(attempt);
      plan->out_actual = result.TotalSize();
      if (Candidate* c = plan->MutableCandidateFor(algo)) {
        c->measured_load = plan->measured_load;
      }
      RecordProfiledExecution(*plan, options, exec_timer.ElapsedMillis());
      return result;
    } catch (const mpc::RoundAbort& abort) {
      resume_rounds = 0;
      if (abort.reason == mpc::RoundAbort::Reason::kLoadBudget) {
        report.budget_aborts += 1;
        cluster.SetLoadBudget(0);
        Algorithm next = algo;
        if (options.replan_on_budget_abort &&
            ReplanAfterBudgetAbort(*plan, abort, algo, &abort_penalties,
                                   &aborted_algos, &next)) {
          // Re-planned: continue with the cheapest remaining candidate,
          // re-budgeted from its penalty-rescored prediction.
          report.replans += 1;
          algo = next;
          if (options.load_budget_factor > 0) {
            if (const Candidate* c = plan->CandidateFor(algo)) {
              if (c->predicted_load > 0) {
                cluster.SetLoadBudget(static_cast<std::int64_t>(std::llround(
                    options.load_budget_factor * c->predicted_load)));
              }
            }
          }
          if (mpc::RoundObserver* obs = cluster.observer()) {
            obs->OnEvent("replan", cluster.stats().rounds,
                         std::string("budget abort: re-planning onto ") +
                             AlgorithmName(algo));
          }
        } else if (algo != Algorithm::kYannakakis &&
                   plan->shape != QueryShape::kSingleEdge) {
          // The budget fired with no candidate left to try; whatever we
          // fall back to runs unbudgeted (degrading again has nowhere to
          // go).
          algo = Algorithm::kYannakakis;
          report.degraded_to_baseline = true;
          if (mpc::RoundObserver* obs = cluster.observer()) {
            obs->OnEvent("degrade", cluster.stats().rounds,
                         std::string("budget abort: falling back to ") +
                             AlgorithmName(algo));
          }
        }
      } else {
        report.backoff_total += backoff;
        backoff = std::min(kReplayBackoffCap, backoff * 2);
        if (options.resume_from_checkpoint) {
          resume_rounds = cluster.checkpointed_rounds();
        }
      }
      if (mpc::RoundObserver* obs = cluster.observer()) {
        obs->OnEvent("replay", cluster.stats().rounds,
                     std::string("attempt ") + std::to_string(attempt) +
                         " aborted; replaying " + AlgorithmName(algo));
      }
      cluster.rng() = rng_snapshot;
    }
  }
}

// Plans the instance, runs the chosen algorithm under the resilience
// options, and returns the plan with its measured side filled. CHECK-fails
// when recovery exhausts its attempts: one-shot callers (examples, benches,
// tests) use fault schedules known to converge within max_attempts.
template <SemiringC S>
PlanExecution<S> PlanAndRun(mpc::Cluster& cluster, TreeInstance<S> instance,
                            const PlannerOptions& options = {},
                            const ExecutionOptions& exec_options = {}) {
  cluster.ResetStats();
  PlanExecution<S> exec;
  exec.plan = PlanQuery(cluster, instance, options);
  exec.plan.planning_stats = cluster.stats();
  if (mpc::RoundObserver* obs = cluster.observer()) {
    obs->OnEvent("plan", 0,
                 std::string("chosen ") + AlgorithmName(exec.plan.chosen) +
                     " for " + QueryShapeName(exec.plan.shape) + " (predicted " +
                     std::to_string(static_cast<std::int64_t>(
                         exec.plan.predicted_load)) +
                     ")");
  }

  cluster.ResetStats();
  StatusOr<DistRelation<S>> result = TryExecuteWithRecovery(
      cluster, std::move(instance), exec_options, &exec.plan);
  CHECK(result.ok()) << result.status();
  exec.result = std::move(result).value();
  return exec;
}

// Runs EVERY candidate on (copies of) the instance and fills each
// candidate's measured_load — the ground truth the planner's ranking is
// judged against in tests and benches. Leaves the cluster's live stats
// reset. Quadratic in work by design; not part of the planning path.
template <SemiringC S>
void MeasureCandidates(mpc::Cluster& cluster, const TreeInstance<S>& instance,
                       PhysicalPlan* plan) {
  for (Candidate& c : plan->candidates) {
    cluster.ResetStats();
    TreeInstance<S> copy = instance;
    DistRelation<S> result =
        DispatchAlgorithm(cluster, c.algorithm, std::move(copy));
    c.measured_load = cluster.stats().max_load;
    if (plan->out_actual < 0) plan->out_actual = result.TotalSize();
    if (c.algorithm == plan->chosen) {
      plan->measured_load = c.measured_load;
      plan->execution_stats = cluster.stats();
    }
  }
  cluster.ResetStats();
}

}  // namespace plan
}  // namespace parjoin

#endif  // PARJOIN_PLAN_EXECUTOR_H_
