// Output-size estimation for line queries (paper §2.2).
//
// For a line query R1(A1,A2) ⋈ ... ⋈ Rn(An,An+1) with output attributes
// A1, An+1, OUT_a is the number of distinct An+1 values reachable from
// a ∈ dom(A1), and OUT = Σ_a OUT_a. The paper computes a constant-factor
// approximation w.h.p. with linear load: hash every distinct An+1 value,
// propagate KMV sketches right-to-left with n reduce-by-key passes, repeat
// with O(log N) independent hash functions, and take the per-value median.
//
// The simulator runs the repetitions sequentially (memory-friendly; the
// paper runs them in parallel — same load up to the O(log N) factor the
// Õ notation hides). Each shipped sketch is charged as one unit, matching
// the paper's "any semiring element ... consumes one unit" convention with
// constant k.

#ifndef PARJOIN_SKETCH_OUT_ESTIMATE_H_
#define PARJOIN_SKETCH_OUT_ESTIMATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/common/logging.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/relation/ops.h"
#include "parjoin/relation/relation.h"
#include "parjoin/sketch/kmv.h"

namespace parjoin {

struct OutEstimate {
  // OUT_a for every a ∈ dom(A1) that reaches the end of the chain
  // (values absent from the map have OUT_a = 0).
  std::unordered_map<Value, std::int64_t> per_source;
  std::int64_t total = 0;

  // Estimated size of the largest intermediate a right-to-left Yannakakis
  // pass materializes over this chain: joining R_i with the already
  // aggregated suffix π_{A_{i+1}, A_{n+1}} produces, per R_i tuple, the
  // distinct-target count of its A_{i+1} value — exactly the per-value
  // sketch estimates flowing through the passes below, so the planner
  // gets J for free from the same round. Always >= total (for a
  // single-relation chain it equals total: the output is the only
  // intermediate).
  std::int64_t max_intermediate = 0;

  std::int64_t ForValue(Value a) const {
    auto it = per_source.find(a);
    return it == per_source.end() ? 0 : it->second;
  }
};

// Repetitions for the estimates the planner and the algorithms make along
// the way (plan scoring, star-like branching, tree x(b), matmul per-group
// columns). The §2.2 default (repetitions = 0 below) grows with log N for
// the w.h.p. guarantee; a constant keeps these rounds a small fraction of
// execution.
inline constexpr int kFixedEstimateRepetitions = 5;

namespace internal_sketch {

// (key value, sketch) pair flowing through reduce-by-key.
struct KeyedKmv {
  Value key = 0;
  Kmv kmv;
};

}  // namespace internal_sketch

// Estimates OUT_a for the chain of binary relations `chain`, where
// chain[i] has schema (path[i], path[i+1]); sources are the values of
// path[0] and distinct targets are counted over path.back().
// `repetitions` defaults to max(7, ceil(log2 N)) when 0.
//
// Precondition: dangling tuples should have been removed for the estimate
// to equal the true OUT_a (otherwise it estimates reachable-distinct
// counts, which upper-bound participation).
template <SemiringC S>
OutEstimate EstimateChainOut(mpc::Cluster& cluster,
                             const std::vector<DistRelation<S>>& chain,
                             const std::vector<AttrId>& path,
                             int repetitions = 0) {
  CHECK_EQ(path.size(), chain.size() + 1);
  std::int64_t n_total = 0;
  for (const auto& rel : chain) n_total += rel.TotalSize();
  if (repetitions == 0) {
    repetitions = std::max<int>(
        7, static_cast<int>(std::ceil(std::log2(std::max<double>(
               2.0, static_cast<double>(n_total))))));
  }

  using internal_sketch::KeyedKmv;
  const int p = cluster.p();
  std::unordered_map<Value, std::vector<double>> estimates;
  // level_join[i][rep]: estimated size of R_i joined with the aggregated
  // suffix (the Yannakakis intermediate at level i).
  std::vector<std::vector<double>> level_join(
      chain.size() >= 1 ? chain.size() - 1 : 0);

  // The paper runs the O(log N) repetitions in parallel; rounds count as
  // one repetition's chain.
  mpc::ParallelRegion region(cluster);
  for (int rep = 0; rep < repetitions; ++rep) {
    region.NextBranch();
    const SeededHash hash(cluster.rng().Next());

    // Seed: for the last relation R_{n}(A_n, A_{n+1}), sketch per A_n value
    // the set of its A_{n+1} neighbours.
    const int last = static_cast<int>(chain.size()) - 1;
    mpc::Dist<KeyedKmv> sketches;  // keyed by path[i] after pass i
    {
      const auto& rel = chain[static_cast<size_t>(last)];
      const int key_pos = rel.schema.IndexOf(path[static_cast<size_t>(last)]);
      const int val_pos =
          rel.schema.IndexOf(path[static_cast<size_t>(last) + 1]);
      CHECK_GE(key_pos, 0);
      CHECK_GE(val_pos, 0);
      mpc::Dist<KeyedKmv> seeded(rel.data.num_parts());
      for (int s = 0; s < rel.data.num_parts(); ++s) {
        for (const auto& t : rel.data.part(s)) {
          KeyedKmv kk;
          kk.key = t.row[key_pos];
          kk.kmv.AddHash(hash(static_cast<std::uint64_t>(t.row[val_pos])));
          seeded.part(s).push_back(kk);
        }
      }
      sketches = mpc::ReduceByKey(
          cluster, std::move(seeded),
          [](const KeyedKmv& kk) { return kk.key; },
          [](KeyedKmv* acc, const KeyedKmv& kk) { acc->kmv.Merge(kk.kmv); });
    }

    // Passes i = n-2 .. 0: join sketches (keyed by path[i+1]) with
    // chain[i](path[i], path[i+1]) and merge per path[i] value.
    for (int i = last - 1; i >= 0; --i) {
      const auto& rel = chain[static_cast<size_t>(i)];
      const int key_pos = rel.schema.IndexOf(path[static_cast<size_t>(i)]);
      const int next_pos =
          rel.schema.IndexOf(path[static_cast<size_t>(i) + 1]);
      CHECK_GE(key_pos, 0);
      CHECK_GE(next_pos, 0);

      // Co-partition by the shared attribute path[i+1].
      const std::uint64_t seed = 0x51ed ^ static_cast<std::uint64_t>(i);
      mpc::Dist<KeyedKmv> sk_parted = mpc::Exchange(
          cluster, sketches, p,
          [&](const KeyedKmv& kk) { return HashPart(kk.key, seed, p); });
      mpc::Dist<Tuple<S>> rel_parted =
          PartitionByColumn(cluster, rel.data, next_pos, seed);

      // Local: emit (path[i] value, sketch of joined path[i+1] value).
      mpc::Dist<KeyedKmv> emitted(p);
      double join_size = 0;
      for (int s = 0; s < p; ++s) {
        std::unordered_map<Value, const Kmv*> lookup;
        lookup.reserve(sk_parted.part(s).size());
        for (const auto& kk : sk_parted.part(s)) lookup[kk.key] = &kk.kmv;
        for (const auto& t : rel_parted.part(s)) {
          auto it = lookup.find(t.row[next_pos]);
          if (it == lookup.end()) continue;  // dangling tuple
          join_size += it->second->Estimate();
          KeyedKmv kk;
          kk.key = t.row[key_pos];
          kk.kmv = *it->second;
          emitted.part(s).push_back(std::move(kk));
        }
      }
      level_join[static_cast<size_t>(i)].push_back(join_size);
      sketches = mpc::ReduceByKey(
          cluster, std::move(emitted),
          [](const KeyedKmv& kk) { return kk.key; },
          [](KeyedKmv* acc, const KeyedKmv& kk) { acc->kmv.Merge(kk.kmv); });
    }

    sketches.ForEach([&](const KeyedKmv& kk) {
      estimates[kk.key].push_back(kk.kmv.Estimate());
    });
  }

  // Median per value; total = sum of medians. (Free: the medians could be
  // carried alongside the r parallel repetitions in the distributed
  // realization.)
  OutEstimate out;
  // parjoin-analyzer: order-independent(per-key writes + commutative int64
  // sum)
  for (auto& [value, reps] : estimates) {
    std::nth_element(reps.begin(), reps.begin() + reps.size() / 2,
                     reps.end());
    const double median = reps[reps.size() / 2];
    const std::int64_t est =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      std::llround(median)));
    out.per_source[value] = est;
    out.total += est;
  }
  for (auto& reps : level_join) {
    if (reps.empty()) continue;
    std::nth_element(reps.begin(), reps.begin() + reps.size() / 2,
                     reps.end());
    out.max_intermediate =
        std::max(out.max_intermediate,
                 static_cast<std::int64_t>(
                     std::llround(reps[reps.size() / 2])));
  }
  out.max_intermediate = std::max(out.max_intermediate, out.total);
  return out;
}

}  // namespace parjoin

#endif  // PARJOIN_SKETCH_OUT_ESTIMATE_H_
