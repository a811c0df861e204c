// The cost-based planner: classifies an instance via query/join_tree.h,
// runs a cheap KMV-based estimation round on the simulator (OUT and the
// largest Yannakakis intermediate J), scores every applicable algorithm
// through plan/cost_model.h, and returns an explainable PhysicalPlan.
//
// Estimation by shape (all rounds linear-load, charged on the cluster):
//  * matmul / line — the §2.2 chain estimator (EstimateChainOut): a
//    constant-factor OUT approximation w.h.p., plus per-level intermediate
//    sizes for J.
//  * star — co-partition by the center B; per b, per-arm degrees and KMV
//    value sketches. J = Σ_b Π_i deg_i(b) (the full-join size Yannakakis
//    pays); OUT is estimated by deduplicating b values whose arm-set
//    signatures agree (two b with identical arm value sets contribute the
//    same output combinations exactly once). Computing star OUT exactly is
//    open (paper §5); this is an upper estimate that is tight on
//    block-structured instances.
//  * star-like / tree / free-connex / single edge — per-output-attribute
//    KMV distinct counts; OUT <= Π_{a in y} min_rel distinct_rel(a), and J
//    falls back to the Table 1 worst case N*OUT.
//
// The estimates are computed on the instance as-is: dangling tuples (which
// every algorithm removes before working) can only push the estimates up,
// keeping them valid upper bounds for ranking.

#ifndef PARJOIN_PLAN_PLANNER_H_
#define PARJOIN_PLAN_PLANNER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/common/sorted_view.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/plan/plan.h"
#include "parjoin/query/explain.h"
#include "parjoin/query/instance.h"
#include "parjoin/relation/ops.h"
#include "parjoin/sketch/kmv.h"
#include "parjoin/sketch/out_estimate.h"

namespace parjoin {
namespace plan {

struct PlannerOptions {
  // >= 0: trust this OUT instead of running the estimation round (benches
  // that know the exact OUT from the block geometry, repeated queries,
  // ...); J is then the Table 1 worst case.
  std::int64_t out_override = -1;
  // Profile-fitted constant factors (cost_model.h). Null: score with
  // constant 1. Not owned; must outlive the PlanQuery call.
  const CalibrationTable* calibration = nullptr;
};

namespace internal_plan {

inline std::int64_t ClampedMul(std::int64_t a, std::int64_t b) {
  const double v = static_cast<double>(a) * static_cast<double>(b);
  if (v >= 4.0e18) return std::int64_t{4000000000000000000};
  return static_cast<std::int64_t>(v);
}

// OUT and J for path-shaped queries (matmul and line) via §2.2.
template <SemiringC S>
void EstimatePath(mpc::Cluster& cluster, const TreeInstance<S>& instance,
                  const std::vector<AttrId>& path, InstanceStats* stats) {
  // Align relations with consecutive path edges.
  const std::vector<DistRelation<S>> chain =
      instance.RelationsOf(instance.query.PathEdges(path));
  if (chain.size() == 2) {
    stats->n1 = chain[0].TotalSize();
    stats->n2 = chain[1].TotalSize();
  }
  const OutEstimate est =
      EstimateChainOut(cluster, chain, path, kFixedEstimateRepetitions);
  stats->out_estimate = std::max<std::int64_t>(1, est.total);
  stats->join_estimate =
      std::max(stats->out_estimate, est.max_intermediate);
  stats->out_is_estimated = true;
}

// OUT and J for star queries via per-center degree/sketch signatures.
template <SemiringC S>
void EstimateStar(mpc::Cluster& cluster, const TreeInstance<S>& instance,
                  AttrId center, InstanceStats* stats) {
  const int p = cluster.p();
  const int n = instance.query.num_edges();
  const SeededHash hash(cluster.rng().Next());

  // Co-partition every relation by B (as-executed exchanges, charged).
  std::vector<mpc::Dist<Tuple<S>>> by_b(static_cast<size_t>(n));
  std::vector<int> b_pos(static_cast<size_t>(n));
  std::vector<int> arm_pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& rel = instance.relations[static_cast<size_t>(i)];
    b_pos[static_cast<size_t>(i)] = rel.schema.IndexOf(center);
    arm_pos[static_cast<size_t>(i)] = 1 - b_pos[static_cast<size_t>(i)];
    CHECK_GE(b_pos[static_cast<size_t>(i)], 0);
    by_b[static_cast<size_t>(i)] = PartitionByColumn(
        cluster, rel.data, b_pos[static_cast<size_t>(i)], 0xb1a9);
  }

  // Per b: per-arm degree and KMV sketch of the arm values. Two b values
  // with identical arm value sets contribute the same output combinations;
  // the (sketch, degree) signature identifies them up to sketch collisions.
  struct SigCount {
    std::uint64_t sig = 0;
    double combos = 0;
  };
  mpc::Dist<SigCount> sigs(p);
  double join_total = 0;
  for (int s = 0; s < p; ++s) {
    struct BInfo {
      std::vector<std::int64_t> deg;
      std::vector<Kmv> arm;
    };
    std::unordered_map<Value, BInfo> infos;
    for (int i = 0; i < n; ++i) {
      for (const auto& t : by_b[static_cast<size_t>(i)].part(s)) {
        BInfo& info = infos[t.row[b_pos[static_cast<size_t>(i)]]];
        if (info.deg.empty()) {
          info.deg.assign(static_cast<size_t>(n), 0);
          info.arm.resize(static_cast<size_t>(n));
        }
        info.deg[static_cast<size_t>(i)] += 1;
        info.arm[static_cast<size_t>(i)].AddHash(hash(
            static_cast<std::uint64_t>(
                t.row[arm_pos[static_cast<size_t>(i)]])));
      }
    }
    // Sorted: join_total is a floating-point fold and sigs feeds an
    // exchange, so both must see a data-determined order.
    for (const auto& [b, info] : SortedEntries(infos)) {
      double combos = 1;
      bool complete = true;
      for (std::int64_t d : info.deg) {
        if (d == 0) complete = false;  // dangling b: joins nothing
        combos *= static_cast<double>(d);
      }
      if (!complete) continue;
      join_total += combos;
      std::uint64_t sig = 0x517cc1b727220a95ULL;
      for (int i = 0; i < n; ++i) {
        sig = Mix64(sig ^ static_cast<std::uint64_t>(
                              info.deg[static_cast<size_t>(i)]));
        for (int k = 0; k < info.arm[static_cast<size_t>(i)].size(); ++k) {
          sig = Mix64(sig ^ info.arm[static_cast<size_t>(i)].hash(k));
        }
      }
      sigs.part(s).push_back(SigCount{sig, combos});
    }
  }

  // Deduplicate signatures globally (one exchange; |sigs| <= |dom(B)|).
  mpc::Dist<SigCount> by_sig = mpc::Exchange(
      cluster, sigs, p, [&](const SigCount& sc) {
        return static_cast<int>(sc.sig % static_cast<std::uint64_t>(p));
      });
  double out_total = 0;
  for (int s = 0; s < p; ++s) {
    std::unordered_map<std::uint64_t, double> uniq;
    for (const auto& sc : by_sig.part(s)) uniq[sc.sig] = sc.combos;
    // Sorted: floating-point fold; addition order must not follow hash
    // order.
    for (const auto& [sig, combos] : SortedEntries(uniq)) {
      out_total += combos;
    }
  }

  stats->star_arity = n;
  stats->out_estimate = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(
             std::min(out_total, 4.0e18))));
  stats->join_estimate = std::max(
      stats->out_estimate,
      static_cast<std::int64_t>(std::llround(
          std::min(join_total, 4.0e18))));
  stats->out_is_estimated = true;
}

// Generic upper estimate for arbitrary trees: per-output-attribute KMV
// distinct counts (minimized over the relations containing the attribute),
// multiplied. The distributed realization is one local sketching pass plus
// an O(p)-tuple gather; charged as one uniform linear round.
template <SemiringC S>
void EstimateGeneric(mpc::Cluster& cluster, const TreeInstance<S>& instance,
                     InstanceStats* stats) {
  const SeededHash hash(cluster.rng().Next());
  double out = 1;
  for (AttrId a : instance.query.output_attrs()) {
    double best = -1;
    for (int e = 0; e < instance.query.num_edges(); ++e) {
      const auto& rel = instance.relations[static_cast<size_t>(e)];
      const int pos = rel.schema.IndexOf(a);
      if (pos < 0) continue;
      Kmv sketch;
      rel.data.ForEach([&](const Tuple<S>& t) {
        sketch.AddHash(hash(static_cast<std::uint64_t>(t.row[pos])));
      });
      const double d = std::max(1.0, sketch.Estimate());
      if (best < 0 || d < best) best = d;
    }
    if (best > 0) out *= best;
    if (out > 4.0e18) {
      out = 4.0e18;
      break;
    }
  }
  cluster.ChargeUniformRound(
      (instance.TotalInputSize() + cluster.p() - 1) / cluster.p());
  stats->out_estimate = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(out)));
  // Table 1 worst case for the baseline's largest intermediate.
  stats->join_estimate = std::max(
      stats->out_estimate,
      ClampedMul(stats->total_input, stats->out_estimate));
  stats->out_is_estimated = true;
}

}  // namespace internal_plan

// Classifies, estimates, scores, and returns the plan. Estimation rounds
// are charged on `cluster` (they are part of every paper algorithm's load
// budget); the instance itself is not modified.
template <SemiringC S>
PhysicalPlan PlanQuery(mpc::Cluster& cluster, const TreeInstance<S>& instance,
                       const PlannerOptions& options = {}) {
  instance.Validate();
  PhysicalPlan plan;
  plan.shape = instance.query.Classify();
  plan.query_debug = instance.query.DebugString();
  plan.structure = ExplainQuery(instance.query);

  InstanceStats& stats = plan.stats;
  stats.p = cluster.p();
  stats.num_relations = instance.query.num_edges();
  for (const auto& rel : instance.relations) {
    stats.relation_sizes.push_back(rel.TotalSize());
    stats.total_input += rel.TotalSize();
  }
  if (plan.shape == QueryShape::kMatMul && stats.num_relations == 2) {
    stats.n1 = stats.relation_sizes[0];
    stats.n2 = stats.relation_sizes[1];
  }

  if (options.out_override >= 0) {
    stats.out_estimate = std::max<std::int64_t>(1, options.out_override);
    stats.join_estimate = std::max(
        stats.out_estimate,
        internal_plan::ClampedMul(stats.total_input, stats.out_estimate));
  } else {
    switch (plan.shape) {
      case QueryShape::kMatMul:
      case QueryShape::kLine: {
        std::vector<AttrId> path;
        CHECK(instance.query.IsPath(&path));
        internal_plan::EstimatePath(cluster, instance, path, &stats);
        break;
      }
      case QueryShape::kStar: {
        AttrId center = -1;
        CHECK(instance.query.IsStarShaped(&center));
        internal_plan::EstimateStar(cluster, instance, center, &stats);
        break;
      }
      default:
        internal_plan::EstimateGeneric(cluster, instance, &stats);
        break;
    }
  }

  plan.candidates = ScoreCandidates(plan.shape, stats, options.calibration);
  plan.calibrated =
      options.calibration != nullptr && !options.calibration->empty();
  CHECK(!plan.candidates.empty())
      << "no algorithm applies to shape " << QueryShapeName(plan.shape);
  plan.chosen = plan.candidates.front().algorithm;
  plan.predicted_load = plan.candidates.front().predicted_load;
  return plan;
}

}  // namespace plan
}  // namespace parjoin

#endif  // PARJOIN_PLAN_PLANNER_H_
