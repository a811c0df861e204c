#include "parjoin/plan/cost_model.h"

#include <algorithm>
#include <cmath>

#include "parjoin/common/logging.h"

namespace parjoin {
namespace plan {
namespace {

double D(std::int64_t v) { return static_cast<double>(v); }

double P23(int p) { return std::pow(D(p), 2.0 / 3.0); }

// Every algorithm, in enum order: the order ScoreCandidates breaks ties in.
constexpr Algorithm kAll[] = {
    Algorithm::kSingleRelation,     Algorithm::kYannakakis,
    Algorithm::kHyperCube,          Algorithm::kMatMulWorstCase,
    Algorithm::kMatMulOutputSensitive, Algorithm::kLineTheorem4,
    Algorithm::kStarTheorem5,       Algorithm::kStarLikeLemma7,
    Algorithm::kTreeTheorem6,
};

}  // namespace

void CalibrationTable::Set(Algorithm a, QueryShape shape, double factor,
                           std::int64_t runs) {
  CHECK(std::isfinite(factor) && factor > 0)
      << "calibration factor for " << AlgorithmName(a) << " must be finite "
      << "and positive, got " << factor;
  for (Entry& e : entries_) {
    if (e.algorithm == a && e.has_shape && e.shape == shape) {
      e.factor = factor;
      e.runs = runs;
      return;
    }
  }
  entries_.push_back(Entry{a, true, shape, factor, runs});
}

void CalibrationTable::SetDefault(Algorithm a, double factor,
                                  std::int64_t runs) {
  CHECK(std::isfinite(factor) && factor > 0)
      << "calibration factor for " << AlgorithmName(a) << " must be finite "
      << "and positive, got " << factor;
  for (Entry& e : entries_) {
    if (e.algorithm == a && !e.has_shape) {
      e.factor = factor;
      e.runs = runs;
      return;
    }
  }
  entries_.push_back(Entry{a, false, QueryShape::kTree, factor, runs});
}

double CalibrationTable::Factor(Algorithm a, QueryShape shape) const {
  double fallback = 1;
  for (const Entry& e : entries_) {
    if (e.algorithm != a) continue;
    if (e.has_shape && e.shape == shape) return e.factor;
    if (!e.has_shape) fallback = e.factor;
  }
  return fallback;
}

StatusOr<Algorithm> AlgorithmFromName(const std::string& name) {
  for (Algorithm a : kAll) {
    if (name == AlgorithmName(a)) return a;
  }
  return InvalidArgumentError("unknown algorithm name: '" + name + "'");
}

double MatMulWorstCaseTerm(std::int64_t n1, std::int64_t n2, int p) {
  return std::sqrt(D(n1) * D(n2) / p);
}

double MatMulOutputSensitiveTerm(std::int64_t n1, std::int64_t n2,
                                 std::int64_t out, int p) {
  return std::cbrt(D(n1) * D(n2) * D(out)) / P23(p);
}

double YannakakisMatMulBound(std::int64_t n, std::int64_t out, int p) {
  return D(n) / p + D(n) * std::sqrt(D(out)) / p;
}

double NewMatMulBound(std::int64_t n1, std::int64_t n2, std::int64_t out,
                      int p) {
  return D(n1 + n2) / p + MatMulLowerBound(n1, n2, out, p);
}

double YannakakisStarBound(std::int64_t n, std::int64_t out, int arity,
                           int p) {
  return D(n) / p +
         D(n) * std::pow(D(out), 1.0 - 1.0 / arity) / p;
}

double YannakakisTreeBound(std::int64_t n, std::int64_t out, int p) {
  return D(n) / p + D(n) * D(out) / p;
}

double NewLineStarBound(std::int64_t n, std::int64_t out, int p) {
  return std::pow(D(n) * D(out) / p, 2.0 / 3.0) +
         D(n) * std::sqrt(D(out)) / p + D(n + out) / p;
}

double NewTreeBound(std::int64_t n, std::int64_t out, int p) {
  return D(n) * std::pow(D(out), 2.0 / 3.0) / p + D(n + out) / p;
}

double MatMulLowerBound(std::int64_t n1, std::int64_t n2, std::int64_t out,
                        int p) {
  return std::min(MatMulWorstCaseTerm(n1, n2, p),
                  MatMulOutputSensitiveTerm(n1, n2, out, p));
}

bool Applicable(Algorithm a, QueryShape shape) {
  switch (a) {
    case Algorithm::kSingleRelation:
      return shape == QueryShape::kSingleEdge;
    case Algorithm::kYannakakis:
      return shape != QueryShape::kSingleEdge;
    case Algorithm::kHyperCube:
    case Algorithm::kMatMulWorstCase:
    case Algorithm::kMatMulOutputSensitive:
      return shape == QueryShape::kMatMul;
    case Algorithm::kLineTheorem4:
      // A matmul is a 2-relation line, but only the dedicated matmul
      // algorithms run that shape.
      return shape == QueryShape::kLine;
    case Algorithm::kStarTheorem5:
      return shape == QueryShape::kStar;
    case Algorithm::kStarLikeLemma7:
      return shape == QueryShape::kStarLike;
    case Algorithm::kTreeTheorem6:
      return shape == QueryShape::kTree;
  }
  return false;
}

double PredictLoad(Algorithm a, QueryShape shape, const InstanceStats& s,
                   const CalibrationTable* calibration) {
  CHECK(Applicable(a, shape))
      << AlgorithmName(a) << " cannot run a " << QueryShapeName(shape)
      << " instance";
  const double factor =
      calibration == nullptr ? 1.0 : calibration->Factor(a, shape);
  const int p = s.p;
  const std::int64_t n = s.total_input;
  const std::int64_t out = std::max<std::int64_t>(1, s.out_estimate);
  const std::int64_t j =
      std::max(out, std::max<std::int64_t>(1, s.join_estimate));
  const double base = [&]() -> double {
    switch (a) {
      case Algorithm::kSingleRelation:
        return D(n + out) / p;
      case Algorithm::kYannakakis:
        // Measured-faithful baseline cost: scan the input, materialize the
        // largest intermediate J, emit the output. When the planner could
        // not estimate J this degrades to the Table 1 worst case via
        // join_estimate's default (see planner.cc).
        return D(n) / p + D(j + out) / p;
      case Algorithm::kHyperCube:
        // 3-attribute grid: shares p^{1/3}, every input tuple replicated to
        // p^{1/3} cells, locally pre-aggregated full join reduced at the end.
        return D(s.n1 + s.n2) / P23(p) + D(j) / p + D(out) / p;
      case Algorithm::kMatMulWorstCase:
        return D(s.n1 + s.n2) / p + MatMulWorstCaseTerm(s.n1, s.n2, p);
      case Algorithm::kMatMulOutputSensitive:
        return D(s.n1 + s.n2) / p +
               MatMulOutputSensitiveTerm(s.n1, s.n2, out, p) + D(out) / p;
      case Algorithm::kLineTheorem4:
      case Algorithm::kStarTheorem5:
        return NewLineStarBound(n, out, p);
      case Algorithm::kStarLikeLemma7:
        // Lemma 7's exact expression needs N' (the star-like arm product
        // sizes); Theorem 6's tree bound is the valid upper bound we can
        // evaluate from (N, OUT) alone.
      case Algorithm::kTreeTheorem6:
        return NewTreeBound(n, out, p);
    }
    return 0;
  }();
  return factor * base;
}

const char* LoadFormula(Algorithm a, QueryShape shape) {
  (void)shape;
  switch (a) {
    case Algorithm::kSingleRelation:
      return "(N+OUT)/p";
    case Algorithm::kYannakakis:
      return "N/p + (J+OUT)/p, J = largest intermediate (Table 1 baseline)";
    case Algorithm::kHyperCube:
      return "(N1+N2)/p^(2/3) + (J+OUT)/p (full-join grid, §1.4)";
    case Algorithm::kMatMulWorstCase:
      return "(N1+N2)/p + sqrt(N1*N2/p) (Theorem 1, §3.1 branch)";
    case Algorithm::kMatMulOutputSensitive:
      return "(N1+N2)/p + (N1*N2*OUT)^(1/3)/p^(2/3) + OUT/p "
             "(Theorem 1, §3.2 branch)";
    case Algorithm::kLineTheorem4:
      return "(N*OUT/p)^(2/3) + N*sqrt(OUT)/p + (N+OUT)/p (Theorem 4)";
    case Algorithm::kStarTheorem5:
      return "(N*OUT/p)^(2/3) + N*sqrt(OUT)/p + (N+OUT)/p (Theorem 5)";
    case Algorithm::kStarLikeLemma7:
      return "N*OUT^(2/3)/p + (N+OUT)/p (Lemma 7, via the Theorem 6 form)";
    case Algorithm::kTreeTheorem6:
      return "N*OUT^(2/3)/p + (N+OUT)/p (Theorem 6)";
  }
  return "?";
}

std::vector<Candidate> ScoreCandidates(QueryShape shape,
                                       const InstanceStats& stats,
                                       const CalibrationTable* calibration) {
  std::vector<Candidate> out;
  for (Algorithm a : kAll) {
    if (!Applicable(a, shape)) continue;
    Candidate c;
    c.algorithm = a;
    c.predicted_load = PredictLoad(a, shape, stats, calibration);
    c.calib_factor =
        calibration == nullptr ? 1.0 : calibration->Factor(a, shape);
    c.formula = LoadFormula(a, shape);
    out.push_back(std::move(c));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.predicted_load < y.predicted_load;
                   });
  return out;
}

}  // namespace plan
}  // namespace parjoin
