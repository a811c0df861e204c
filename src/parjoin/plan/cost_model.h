// The single shared source of the paper's load formulas.
//
// Two layers:
//  * Closed-form evaluations of the Table 1 bounds (moved here from the
//    bench-only bench/bounds.{h,cc}), reported by every bench next to
//    measured loads. All bounds are asymptotic; these helpers evaluate the
//    dominant expression with constant 1, so ratios (measured / bound) are
//    meaningful across a sweep even though absolute constants are
//    implementation-specific.
//  * The planner's candidate scoring: PredictLoad evaluates the bound that
//    applies to one (algorithm, shape, stats) combination, and
//    ScoreCandidates enumerates every algorithm applicable to a shape in
//    ascending predicted-load order. The Yannakakis baseline is scored
//    with the ESTIMATED largest intermediate J (not the worst-case OUT
//    expression) when the planner measured one — that is what places the
//    Table 1 crossovers correctly on concrete instances.

#ifndef PARJOIN_PLAN_COST_MODEL_H_
#define PARJOIN_PLAN_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "parjoin/common/status.h"
#include "parjoin/plan/plan.h"

namespace parjoin {
namespace plan {

// --- Profile-driven calibration ---------------------------------------------

// Per-algorithm constant factors fitted from measured runs (the profile
// store's obs::FitCalibration). PredictLoad multiplies its constant-1
// Table 1 bound by the factor, so a calibrated planner ranks candidates by
// *expected measured* load instead of the asymptotic expression. An empty
// table — or a missing entry — is factor 1.0: the uncalibrated prediction.
// Shape-specific entries win over the per-algorithm default because the
// constants genuinely differ per shape (Yannakakis materializes different
// intermediates on a star than on a line).
class CalibrationTable {
 public:
  struct Entry {
    Algorithm algorithm = Algorithm::kYannakakis;
    bool has_shape = false;  // false: per-algorithm default, any shape
    QueryShape shape = QueryShape::kTree;
    double factor = 1;
    std::int64_t runs = 0;  // fit support (#executions behind the factor)
  };

  // Upserts a (algorithm, shape) entry / an any-shape default. `factor`
  // must be finite and > 0 (CHECK: factors come from our own fit).
  void Set(Algorithm a, QueryShape shape, double factor,
           std::int64_t runs = 0);
  void SetDefault(Algorithm a, double factor, std::int64_t runs = 0);

  // Shape-specific entry if present, else the algorithm's default entry,
  // else 1.0.
  double Factor(Algorithm a, QueryShape shape) const;

  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  // A handful of algorithms x shapes: linear scan, deterministic order.
  std::vector<Entry> entries_;
};

// Reverse lookups for calibration/profile files (external data: Status,
// not CHECK). Names are the AlgorithmName / QueryShapeName spellings.
StatusOr<Algorithm> AlgorithmFromName(const std::string& name);

// --- Table 1 closed forms (constant 1) --------------------------------------

// The two terms Theorem 1 takes the minimum of: the worst-case term
// sqrt(N1*N2/p) (§3.1) and the output-sensitive term
// (N1*N2*OUT)^{1/3}/p^{2/3} (§3.2). Every bound, prediction and dispatch
// below evaluates them here, so MatMul's `<=` between them compares the
// same doubles the cost model reports.
double MatMulWorstCaseTerm(std::int64_t n1, std::int64_t n2, int p);
double MatMulOutputSensitiveTerm(std::int64_t n1, std::int64_t n2,
                                 std::int64_t out, int p);

// Distributed Yannakakis, matrix multiplication: O(N/p + N*sqrt(OUT)/p).
double YannakakisMatMulBound(std::int64_t n, std::int64_t out, int p);

// Theorem 1: O((N1+N2)/p + min{sqrt(N1 N2 / p),
//                               (N1 N2)^{1/3} OUT^{1/3} / p^{2/3}}).
double NewMatMulBound(std::int64_t n1, std::int64_t n2, std::int64_t out,
                      int p);

// Distributed Yannakakis, star query (n relations):
// O(N/p + N * OUT^{1-1/n} / p).
double YannakakisStarBound(std::int64_t n, std::int64_t out, int arity, int p);

// Distributed Yannakakis, line/tree queries: O(N/p + N*OUT/p).
double YannakakisTreeBound(std::int64_t n, std::int64_t out, int p);

// Theorem 4 / Theorem 5 (line and star queries):
// O((N*OUT/p)^{2/3} + N*OUT^{1/2}/p + (N+OUT)/p).
double NewLineStarBound(std::int64_t n, std::int64_t out, int p);

// Theorem 6 (tree queries): O(N*OUT^{2/3}/p + (N+OUT)/p).
double NewTreeBound(std::int64_t n, std::int64_t out, int p);

// Theorem 3 lower bound:
// Omega(min{sqrt(N1 N2 / p), (N1 N2)^{1/3} OUT^{1/3} / p^{2/3}}).
double MatMulLowerBound(std::int64_t n1, std::int64_t n2, std::int64_t out,
                        int p);

// --- Planner scoring ---------------------------------------------------------

// True iff `a` can execute an instance of this shape.
bool Applicable(Algorithm a, QueryShape shape);

// Predicted load of running `a` on an instance with `stats` (constant 1
// when `calibration` is null or has no entry; otherwise the bound times the
// fitted factor). CHECK-fails when !Applicable(a, shape).
double PredictLoad(Algorithm a, QueryShape shape, const InstanceStats& stats,
                   const CalibrationTable* calibration = nullptr);

// The human-readable expression PredictLoad evaluates.
const char* LoadFormula(Algorithm a, QueryShape shape);

// Every applicable candidate, ascending by predicted load (ties broken by
// enum order, so the dispatch is deterministic). With a calibration table,
// predictions are scaled by the fitted factors (recorded per candidate in
// Candidate::calib_factor) before ranking — this is where a profile can
// flip a crossover decision.
std::vector<Candidate> ScoreCandidates(
    QueryShape shape, const InstanceStats& stats,
    const CalibrationTable* calibration = nullptr);

}  // namespace plan
}  // namespace parjoin

#endif  // PARJOIN_PLAN_COST_MODEL_H_
