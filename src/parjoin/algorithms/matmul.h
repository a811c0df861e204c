// Sparse matrix multiplication — the paper's Theorem 1:
//   load O((N1+N2)/p + min{ sqrt(N1*N2/p),
//                           (N1*N2)^{1/3} * OUT^{1/3} / p^{2/3} }) w.h.p.
//
// MatMul() is the user-facing entry point: it removes dangling tuples,
// handles the trivial N=1 cases by broadcast, obtains the §2.2 OUT
// estimate, and dispatches to the worst-case-optimal (§3.1) or the
// output-sensitive (§3.2) algorithm — whichever the estimate says is
// cheaper — mirroring the final paragraph of §3.2.

#ifndef PARJOIN_ALGORITHMS_MATMUL_H_
#define PARJOIN_ALGORITHMS_MATMUL_H_

#include <algorithm>
#include <cstdint>

#include "parjoin/algorithms/matmul_os.h"
#include "parjoin/algorithms/matmul_wc.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/relation/ops.h"
#include "parjoin/sketch/out_estimate.h"

namespace parjoin {

enum class MatMulStrategy {
  kAuto,             // Theorem 1: pick min of the two bounds via estimate
  kWorstCase,        // force §3.1
  kOutputSensitive,  // force §3.2
};

struct MatMulOptions {
  MatMulStrategy strategy = MatMulStrategy::kAuto;
  bool remove_dangling = true;
};

// Computes ∑_B R1(A,B) ⋈ R2(B,C). The output schema is (A, C).
template <SemiringC S>
DistRelation<S> MatMul(mpc::Cluster& cluster, DistRelation<S> r1,
                       DistRelation<S> r2,
                       const MatMulOptions& options = {}) {
  const internal_matmul::MatMulAttrs m =
      internal_matmul::ResolveMatMulAttrs(r1, r2);

  if (options.remove_dangling) {
    r1 = Semijoin(cluster, r1, r2);
    r2 = Semijoin(cluster, r2, r1);
  }
  const std::int64_t n1 = r1.TotalSize();
  const std::int64_t n2 = r2.TotalSize();

  if (n1 == 0 || n2 == 0) {
    DistRelation<S> empty;
    empty.schema = Schema{m.a, m.c};
    empty.data = mpc::Dist<Tuple<S>>(cluster.p());
    return empty;
  }
  // N1 = 1 (or N2 = 1): broadcast the single tuple; every result is
  // computed locally with no semiring additions (§1.5).
  if (n1 == 1) {
    return internal_matmul::MatMulBroadcastSmall(cluster, m, r1, r2, true);
  }
  if (n2 == 1) {
    return internal_matmul::MatMulBroadcastSmall(cluster, m, r1, r2, false);
  }

  switch (options.strategy) {
    case MatMulStrategy::kWorstCase:
      return MatMulWorstCase(cluster, r1, r2);
    case MatMulStrategy::kOutputSensitive:
      return MatMulOutputSensitive(cluster, r1, r2);
    case MatMulStrategy::kAuto:
      break;
  }

  const OutEstimate est = EstimateChainOut(
      cluster, std::vector<DistRelation<S>>{r1, r2}, {m.a, m.b, m.c});
  const std::int64_t out_est = std::max<std::int64_t>(1, est.total);
  const int p = cluster.p();
  if (plan::MatMulWorstCaseTerm(n1, n2, p) <=
      plan::MatMulOutputSensitiveTerm(n1, n2, out_est, p)) {
    return MatMulWorstCase(cluster, r1, r2);
  }
  return MatMulOutputSensitive(cluster, r1, r2, &est);
}

}  // namespace parjoin

#endif  // PARJOIN_ALGORITHMS_MATMUL_H_
