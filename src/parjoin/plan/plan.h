// Physical-plan IR: the planner's account of one query instance — its
// shape classification, the statistics the cost model consumed (IN per
// relation, p, estimated OUT, estimated largest Yannakakis intermediate),
// every candidate algorithm with its predicted load, the chosen winner,
// and (after execution) the measured load next to the prediction.
//
// A PhysicalPlan is pure data: building one computes nothing and charges
// nothing beyond the estimation rounds the planner already ran. It renders
// itself as a human-readable report (ToText) and as machine-readable JSON
// (ToJson) so benches, examples and tests can assert on predicted vs.
// measured load without re-deriving the Table 1 formulas.

#ifndef PARJOIN_PLAN_PLAN_H_
#define PARJOIN_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "parjoin/mpc/cluster.h"
#include "parjoin/query/join_tree.h"

namespace parjoin {
namespace plan {

// Every executable strategy the planner can dispatch. The two Theorem 1
// branches are separate candidates: their crossover (OUT* ~ sqrt(N1*N2*p))
// is the matmul row of Table 1 and the planner must place it.
enum class Algorithm {
  kSingleRelation,        // one relation: aggregate by outputs
  kYannakakis,            // §1.2/§1.4 baseline (aggregation pushdown)
  kHyperCube,             // §1.4 full-join grid + aggregate
  kMatMulWorstCase,       // §3.1, load O(sqrt(N1*N2/p))
  kMatMulOutputSensitive, // §3.2, load O((N1*N2*OUT)^{1/3}/p^{2/3})
  kLineTheorem4,          // §4 recursive heavy/light line algorithm
  kStarTheorem5,          // §5 permutation decomposition
  kStarLikeLemma7,        // §6 star-like algorithm
  kTreeTheorem6,          // §7 twig/skeleton tree algorithm
};

const char* AlgorithmName(Algorithm a);

// Everything the cost model sees. The planner fills this from the instance
// (exact relation sizes) and from the cheap estimation round (OUT and the
// largest intermediate a Yannakakis pass would materialize).
struct InstanceStats {
  int p = 1;
  int num_relations = 0;
  std::vector<std::int64_t> relation_sizes;
  std::int64_t total_input = 0;  // N
  // Matrix multiplication only: sizes in path orientation R1(A,B), R2(B,C).
  std::int64_t n1 = 0;
  std::int64_t n2 = 0;
  int star_arity = 0;  // star queries only: number of arms n
  // Estimated |Q(R)|; >= 1. Exactness depends on the shape: KMV-accurate
  // for path shapes (§2.2), an upper estimate for stars and general trees
  // (computing star OUT exactly is open — paper §5).
  std::int64_t out_estimate = 1;
  // Estimated size of the largest intermediate relation the Yannakakis
  // baseline materializes (>= out_estimate on the shapes we estimate).
  std::int64_t join_estimate = 1;
  bool out_is_estimated = false;  // false: defaulted, not measured
};

struct Candidate {
  Algorithm algorithm = Algorithm::kYannakakis;
  double predicted_load = 0;
  std::string formula;  // the Table 1 expression the prediction evaluates
  // Profile-fitted constant factor the prediction was scaled by; 1.0 when
  // the planner scored without a calibration table (cost_model.h).
  double calib_factor = 1;
  // Measured stats().max_load of running this candidate; -1 until the
  // executor (or MeasureCandidates) fills it.
  std::int64_t measured_load = -1;
};

// What the recovery loop decided to get the result (plan/executor.h).
// Attempts count dispatches of the algorithm: 1 means the first try
// succeeded. What the cluster charged for it — crashes, resumes, resumed
// rounds, re-balances — is in PhysicalPlan::execution_stats.
struct RecoveryReport {
  int attempts = 1;
  int budget_aborts = 0;
  // True when the load-budget guardrail abandoned the chosen algorithm and
  // the run finished on the Yannakakis baseline.
  bool degraded_to_baseline = false;
  // Simulated backoff charged before replays (units of rounds; recorded,
  // never slept).
  std::int64_t backoff_total = 0;
  int replans = 0;  // budget aborts answered by re-planning
  std::vector<std::string> events;  // cluster fault log, in firing order
};

struct PhysicalPlan {
  QueryShape shape = QueryShape::kTree;
  std::string query_debug;  // JoinTree::DebugString()
  std::string structure;    // ExplainQuery() structural report
  InstanceStats stats;
  std::vector<Candidate> candidates;  // ascending predicted_load
  Algorithm chosen = Algorithm::kYannakakis;
  double predicted_load = 0;
  // True when the candidates were scored through a calibration table.
  bool calibrated = false;

  // Filled by the executor (TryExecuteWithRecovery).
  std::int64_t measured_load = -1;  // executed algorithm's stats().max_load
  std::int64_t out_actual = -1;     // result size
  mpc::Cluster::Stats planning_stats;   // cost of the estimation rounds
  mpc::Cluster::Stats execution_stats;  // cost of the chosen algorithm
  // The algorithm that actually produced the result: `chosen` unless the
  // load-budget guardrail degraded the run onto the baseline.
  Algorithm executed = Algorithm::kYannakakis;
  RecoveryReport recovery;

  // nullptr when `a` is not a candidate for this shape.
  const Candidate* CandidateFor(Algorithm a) const;
  Candidate* MutableCandidateFor(Algorithm a);

  std::string ToText() const;
  std::string ToJson() const;
};

}  // namespace plan
}  // namespace parjoin

#endif  // PARJOIN_PLAN_PLAN_H_
