// Deterministic MPC primitives (paper §2.1): sorting, sorting into key
// groups, reduce-by-key and parallel packing. All run in O(1) rounds with
// load O(N/p) for input size N, assuming N >= p^{1+eps}. Sort,
// SortGroupedByKey and ReduceByKey place their output on the cluster's p
// servers.
//
// Charging discipline: every primitive documents whether its cost is
//  * as-executed — the simulator moves the data and charges exactly what
//    each server receives; or
//  * modeled-linear — the known distributed realization has linear load
//    (citations in the paper), the simulator computes the answer centrally
//    and charges ceil(N/p) per server per round for the documented number
//    of rounds. Used only where the distributed-internal bookkeeping adds
//    nothing to the measured comparison (e.g. parallel packing).
//
// Threading discipline: hot loops whose iterations touch disjoint parts
// or disjoint key ranges run under ParallelFor — local sorts and
// pre-aggregation per part, the splitter-partitioned chunks of the final
// merge, and the per-destination emission of the fix rounds (made
// independent by FixRound's read-only boundary pass over the merged
// order).
// Key/compare/combine functors may be invoked concurrently across parts
// and must not mutate shared state. Outputs and charged loads are
// bit-identical for every thread count (PARJOIN_THREADS=1 included).

#ifndef PARJOIN_MPC_PRIMITIVES_H_
#define PARJOIN_MPC_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/mpc/exchange.h"

namespace parjoin {
namespace mpc {

namespace internal_primitives {

// Merges sorted runs into one globally sorted vector, reproducing exactly
// the order a stable sort of the run-order concatenation would produce
// (ties resolve to the lower run index, and within a run to the original
// order). Pairwise merge rounds; the merges of one round are independent
// and execute under ParallelFor. Elements are moved, never copied.
//
// This is the sequential/small-input path of MergeSortedRuns and the
// baseline of the E6 merge-strategy ablation: its late rounds merge ever
// fewer, ever larger pairs, so past round log2(threads) most workers idle.
template <typename T, typename Less>
std::vector<T> MergeSortedRunsPairwise(std::vector<std::vector<T>> runs,
                                       Less less) {
  if (runs.empty()) return {};
  while (runs.size() > 1) {
    const int pairs = static_cast<int>(runs.size() / 2);
    std::vector<std::vector<T>> next((runs.size() + 1) / 2);
    ParallelFor(pairs, [&](int i) {
      auto& a = runs[static_cast<size_t>(2 * i)];
      auto& b = runs[static_cast<size_t>(2 * i + 1)];
      std::vector<T> merged;
      merged.reserve(a.size() + b.size());
      // std::merge takes from the first range on ties, so the lower part
      // index wins — exactly the stable order of the concatenation.
      std::merge(std::make_move_iterator(a.begin()),
                 std::make_move_iterator(a.end()),
                 std::make_move_iterator(b.begin()),
                 std::make_move_iterator(b.end()),
                 std::back_inserter(merged), less);
      a.clear();
      a.shrink_to_fit();
      b.clear();
      b.shrink_to_fit();
      next[static_cast<size_t>(i)] = std::move(merged);
    });
    if (runs.size() % 2 == 1) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
  return std::move(runs.front());
}

// One contiguous slice of a sorted run. Slices handed to MergeSpansInto
// are consumed: their elements are moved into the output.
template <typename T>
struct RunSpan {
  T* begin = nullptr;
  T* end = nullptr;
};

// Merges `spans` (sorted slices, in run order) into the output range
// starting at `out`, which must have room for the combined size. Same
// stable order as MergeSortedRunsPairwise: ties resolve to the lower span
// index. Runs the ladder sequentially — MergeSortedRuns parallelizes
// across disjoint key ranges, not within one.
template <typename T, typename Less>
void MergeSpansInto(std::vector<RunSpan<T>> spans, Less less, T* out) {
  // Dropping empty spans keeps the ladder shallow and cannot disturb tie
  // order: ties only resolve among spans that hold elements.
  spans.erase(std::remove_if(
                  spans.begin(), spans.end(),
                  [](const RunSpan<T>& s) { return s.begin == s.end; }),
              spans.end());
  if (spans.empty()) return;
  // Intermediate merge buffers. A vector's heap storage is stable while
  // the outer vector grows, so spans into earlier buffers stay valid.
  std::vector<std::vector<T>> bufs;
  while (spans.size() > 2) {
    const size_t pairs = spans.size() / 2;
    std::vector<RunSpan<T>> next;
    next.reserve(pairs + 1);
    for (size_t i = 0; i < pairs; ++i) {
      const RunSpan<T>& a = spans[2 * i];
      const RunSpan<T>& b = spans[2 * i + 1];
      std::vector<T> merged;
      merged.reserve(
          static_cast<size_t>((a.end - a.begin) + (b.end - b.begin)));
      std::merge(std::make_move_iterator(a.begin),
                 std::make_move_iterator(a.end),
                 std::make_move_iterator(b.begin),
                 std::make_move_iterator(b.end),
                 std::back_inserter(merged), less);
      bufs.push_back(std::move(merged));
      next.push_back(
          {bufs.back().data(), bufs.back().data() + bufs.back().size()});
    }
    if (spans.size() % 2 == 1) next.push_back(spans.back());
    spans = std::move(next);
  }
  if (spans.size() == 1) {
    std::move(spans[0].begin, spans[0].end, out);
    return;
  }
  std::merge(std::make_move_iterator(spans[0].begin),
             std::make_move_iterator(spans[0].end),
             std::make_move_iterator(spans[1].begin),
             std::make_move_iterator(spans[1].end), out, less);
}

// Below this many elements the splitter partition costs more than it
// saves; MergeSortedRuns falls through to the pairwise ladder.
inline constexpr std::int64_t kSplitterMergeMinTotal = 1 << 13;

// Merges sorted runs into one globally sorted vector — same contract and
// bit-identical output as MergeSortedRunsPairwise — via splitter
// partitioning: sample the runs at a fixed stride (sample density follows
// run length), sort the sample, pick ~4·threads chunk boundaries from it,
// cut every run at every boundary with lower_bound, and merge the
// resulting disjoint chunks concurrently under ParallelFor, each chunk's
// ladder writing directly into its exact output slice.
//
// Every cut for one boundary is a lower_bound of the same splitter value,
// so a group of equal keys is never split across chunks: each chunk's
// ladder sees every tie it must order, and the concatenation of chunks is
// the unique stable order of the run concatenation. The output therefore
// depends on neither the splitter choice nor the thread count; only the
// internal work division does. Requires T to be default-constructible
// (the output buffer is preallocated and filled by move-assignment).
template <typename T, typename Less>
std::vector<T> MergeSortedRuns(std::vector<std::vector<T>> runs, Less less) {
  std::int64_t total = 0;
  for (const auto& r : runs) total += static_cast<std::int64_t>(r.size());
  const int threads = ParallelForThreads();
  if (threads <= 1 || total < kSplitterMergeMinTotal) {
    return MergeSortedRunsPairwise(std::move(runs), less);
  }

  // Oversampled splitter selection: 8 candidates per target chunk keep
  // chunk sizes near total/chunks even when run lengths are skewed.
  const std::int64_t want_chunks = 4 * static_cast<std::int64_t>(threads);
  const std::int64_t stride =
      std::max<std::int64_t>(1, total / (8 * want_chunks));
  std::vector<const T*> sample;
  sample.reserve(static_cast<size_t>(total / stride + 1));
  for (const auto& r : runs) {
    const std::int64_t r_size = static_cast<std::int64_t>(r.size());
    for (std::int64_t i = stride - 1; i < r_size; i += stride) {
      sample.push_back(&r[static_cast<size_t>(i)]);
    }
  }
  std::sort(sample.begin(), sample.end(),
            [&](const T* a, const T* b) { return less(*a, *b); });
  // (Equal-key sample permutations are irrelevant: splitters act only
  // through lower_bound, which sees values, not sample positions.)
  const int chunks = static_cast<int>(std::min(
      want_chunks, static_cast<std::int64_t>(sample.size()) + 1));
  const int nruns = static_cast<int>(runs.size());

  // cut[b][r]: number of elements of run r that precede chunk b; row 0 is
  // all zeros, row `chunks` is the run sizes. Monotone in b because the
  // splitters are sorted.
  std::vector<std::vector<std::int64_t>> cut(
      static_cast<size_t>(chunks) + 1,
      std::vector<std::int64_t>(static_cast<size_t>(nruns), 0));
  for (int r = 0; r < nruns; ++r) {
    cut[static_cast<size_t>(chunks)][static_cast<size_t>(r)] =
        static_cast<std::int64_t>(runs[static_cast<size_t>(r)].size());
  }
  ParallelFor(chunks - 1, [&](int i) {
    const size_t b = static_cast<size_t>(i) + 1;
    const T& splitter =
        *sample[b * sample.size() / static_cast<size_t>(chunks)];
    for (int r = 0; r < nruns; ++r) {
      const auto& run = runs[static_cast<size_t>(r)];
      cut[b][static_cast<size_t>(r)] =
          std::lower_bound(run.begin(), run.end(), splitter, less) -
          run.begin();
    }
  });
  std::vector<std::int64_t> offset(static_cast<size_t>(chunks) + 1, 0);
  for (int b = 1; b <= chunks; ++b) {
    std::int64_t sum = 0;
    for (int r = 0; r < nruns; ++r) {
      sum += cut[static_cast<size_t>(b)][static_cast<size_t>(r)];
    }
    offset[static_cast<size_t>(b)] = sum;
  }

  std::vector<T> out(static_cast<size_t>(total));
  ParallelFor(chunks, [&](int c) {
    const size_t b = static_cast<size_t>(c);
    std::vector<RunSpan<T>> spans;
    spans.reserve(static_cast<size_t>(nruns));
    for (int r = 0; r < nruns; ++r) {
      T* base = runs[static_cast<size_t>(r)].data();
      spans.push_back({base + cut[b][static_cast<size_t>(r)],
                       base + cut[b + 1][static_cast<size_t>(r)]});
    }
    MergeSpansInto(std::move(spans), less, out.data() + offset[b]);
  });
  return out;
}

// Moves the key-sorted range [first, last) onto the end of *out, combining
// adjacent equal keys left to right.
template <typename It, typename T, typename KeyFn, typename CombineFn>
void FoldAdjacentEqual(It first, It last, KeyFn key_fn, CombineFn combine,
                       std::vector<T>* out) {
  for (; first != last; ++first) {
    if (!out->empty() && key_fn(out->back()) == key_fn(*first)) {
      combine(&out->back(), *first);
    } else {
      out->push_back(std::move(*first));
    }
  }
}

// Merges the sorted `runs` into the global order and books the sort round
// (under its own "sort" trace scope): server i of p receives the i-th
// ceil(M/p) chunk of the M merged items, the placement ScatterEvenly gives.
template <typename T, typename Less>
std::vector<T> MergeAndChargeSort(Cluster& cluster,
                                  std::vector<std::vector<T>> runs, Less less) {
  TraceScope trace(cluster, "sort");
  std::vector<T> merged = MergeSortedRuns(std::move(runs), less);
  const int p = cluster.p();
  const std::int64_t n = static_cast<std::int64_t>(merged.size());
  const std::int64_t chunk = (n + p - 1) / p;
  std::vector<std::int64_t> received(static_cast<size_t>(p), 0);
  for (int s = 0; s < p; ++s) {
    received[static_cast<size_t>(s)] =
        std::clamp<std::int64_t>(n - s * chunk, 0, chunk);
  }
  cluster.ChargeRound(received);
  return merged;
}

// The fix round over the merged order, cut into the sort round's
// ceil(M/p) chunks: every run of equal keys moves whole to the chunk
// holding its first element. Destination t owns
// merged[begin[t], begin[t + 1]): its chunk minus a leading run that began
// in an earlier chunk, plus the rest of its last run. `emit(first, last,
// &part)` moves or folds that slice into part t, under ParallelFor. The
// round charges one unit per item of a skipped leading run, booked to the
// run's home.
template <typename T, typename Less, typename EmitFn>
Dist<T> FixRound(Cluster& cluster, std::vector<T> merged, Less less,
                 EmitFn emit) {
  const int p = cluster.p();
  const std::int64_t n = static_cast<std::int64_t>(merged.size());
  const std::int64_t chunk = (n + p - 1) / p;
  std::vector<std::int64_t> begin(static_cast<size_t>(p) + 1, n);
  begin[0] = 0;
  std::vector<std::int64_t> received(static_cast<size_t>(p), 0);
  // The boundary pass: read-only and finished before any item moves (a
  // moved-from item may no longer compare by its key). A run that crosses
  // boundary t began in chunk t - 1 unless it also crossed boundary t - 1,
  // so its home carries forward and one upper_bound per crossing run finds
  // its end: O(p log M) at worst, with no backward walk.
  int home = 0;  // where the last run skipped at a boundary began
  for (int t = 1; t < p && t * chunk < n; ++t) {
    const size_t tdx = static_cast<size_t>(t);
    const std::int64_t start = t * chunk;
    const auto head = merged.begin() + start;
    if (begin[tdx - 1] > start) {
      begin[tdx] = begin[tdx - 1];  // the run skipped at t - 1 covers t too
    } else if (less(*(head - 1), *head)) {
      begin[tdx] = start;  // a run begins on the boundary: nothing moves
      continue;
    } else {
      home = t - 1;
      begin[tdx] =
          std::upper_bound(head, merged.end(), *head, less) - merged.begin();
    }
    // The skipped items of chunk t ship to the run's home.
    received[static_cast<size_t>(home)] +=
        std::min(begin[tdx], start + chunk) - start;
  }

  Dist<T> out(p);
  ParallelFor(p, [&](int t) {
    const size_t tdx = static_cast<size_t>(t);
    emit(merged.begin() + begin[tdx], merged.begin() + begin[tdx + 1],
         &out.part(t));
  });
  cluster.ChargeRound(received);
  return out;
}

}  // namespace internal_primitives

// --- Sorting [Goodrich '99] -------------------------------------------------
//
// Redistributes items so that server i holds the i-th contiguous chunk of
// the globally sorted order, chunks of size ceil(N/p). As-executed
// charge: each part receives its chunk (one round; the real algorithm's
// splitter-sampling rounds move asymptotically less data).
//
// Execution: each part is stable-sorted locally (independent; threaded via
// ParallelFor), then the splitter-based multiway merge rebuilds the global
// stable order (disjoint key-range chunks merged concurrently). The
// result — data, placement, and charged loads — is bit-identical for any
// thread count, including the fully sequential PARJOIN_THREADS=1 path.
// Consumes its input: pass std::move(dist) to avoid copying the parts.
template <typename T, typename Less>
Dist<T> Sort(Cluster& cluster, Dist<T> in, Less less) {
  ParallelFor(in.num_parts(), [&](int s) {
    auto& part = in.part(s);
    std::stable_sort(part.begin(), part.end(), less);
  });
  std::vector<T> merged = internal_primitives::MergeAndChargeSort(
      cluster, std::move(in.parts()), less);
  return ScatterEvenly(std::move(merged), cluster.p());
}

// Sorts by a key projection and then moves every run of equal keys entirely
// onto the part where the run begins (the paper's "tuples with the same
// value land on the same server or two consecutive servers; in the latter
// case use another round" fix, generalized to runs spanning several parts).
// As-executed: the sort round plus one fix round charging the moved tuples.
// Only sensible when every key group fits on a server (callers guarantee
// this, e.g. LinearSparseMM where degrees are < N/p).
// Consumes its input: pass std::move(dist) to avoid copying the parts.
//
// Execution: the fix round is cut straight from the merged order
// (internal_primitives::FixRound), and each destination moves its own
// slice under ParallelFor.
template <typename T, typename KeyFn>
Dist<T> SortGroupedByKey(Cluster& cluster, Dist<T> in, KeyFn key_fn) {
  TraceScope trace(cluster, "sort_grouped");
  const auto less = [&](const T& a, const T& b) {
    return key_fn(a) < key_fn(b);
  };
  ParallelFor(in.num_parts(), [&](int s) {
    auto& part = in.part(s);
    std::stable_sort(part.begin(), part.end(), less);
  });
  return internal_primitives::FixRound(
      cluster,
      internal_primitives::MergeAndChargeSort(cluster, std::move(in.parts()),
                                              less),
      less, [](auto first, auto last, std::vector<T>* part) {
        part->assign(std::make_move_iterator(first),
                     std::make_move_iterator(last));
      });
}

// --- Reduce-by-key [Hu, Tao, Yi '17] ---------------------------------------
//
// Computes the "sum" (any associative, commutative combine) of values per
// key. As-executed: local pre-aggregation (free), a sort of the
// pre-aggregated items (load M/p for M <= N locally-distinct items), and a
// boundary-merge fix round.
//
// KeyFn:      T -> K (K ordered and equality-comparable)
// CombineFn:  (T* accumulator, const T& item) merges item into accumulator.
//             Must be associative: each input part is pre-aggregated
//             before the fix round folds the partial sums left to right.
//
// Execution: the pre-aggregated parts are already key-sorted, so they go
// straight to the merge; the fix round is cut from the merged order
// (internal_primitives::FixRound), and each destination folds its own
// slice left to right under ParallelFor.
// Consumes its input: pass std::move(dist) to avoid copying the parts.
template <typename T, typename KeyFn, typename CombineFn>
Dist<T> ReduceByKey(Cluster& cluster, Dist<T> in, KeyFn key_fn,
                    CombineFn combine) {
  TraceScope trace(cluster, "reduce_by_key");
  const auto less = [&](const T& a, const T& b) {
    return key_fn(a) < key_fn(b);
  };

  // Local pre-aggregation: sort each part by key in place, combine
  // adjacent equals. Parts are independent, so the pass is threaded.
  Dist<T> pre(in.num_parts());
  ParallelFor(in.num_parts(), [&](int s) {
    auto& local = in.part(s);
    std::stable_sort(local.begin(), local.end(), less);
    internal_primitives::FoldAdjacentEqual(local.begin(), local.end(), key_fn,
                                           combine, &pre.part(s));
    local.clear();
    local.shrink_to_fit();
  });

  return internal_primitives::FixRound(
      cluster,
      internal_primitives::MergeAndChargeSort(cluster, std::move(pre.parts()),
                                              less),
      less, [&](auto first, auto last, std::vector<T>* part) {
        internal_primitives::FoldAdjacentEqual(first, last, key_fn, combine,
                                               part);
      });
}

// --- Parallel packing [Hu & Yi '19] ----------------------------------------
//
// Given weights 0 <= w_i <= 1, groups the ids into m sets with per-set sum
// <= 1 and (all but one set) sum >= 1/2; m <= 1 + 2*sum(w). Modeled-linear:
// the answer is computed centrally and two rounds of ceil(N/p) are charged
// (the distributed realization is a prefix-sum + interval assignment).
struct PackedItem {
  std::int64_t id = 0;
  double weight = 0;
};

// The packing: every item's id maps to its group, and the group ids are
// dense in [0, groups).
struct Packing {
  std::unordered_map<std::int64_t, int> group_of;
  int groups = 0;
};

inline Packing ParallelPacking(Cluster& cluster,
                               std::vector<PackedItem> items) {
  TraceScope trace(cluster, "packing");
  const std::int64_t n = static_cast<std::int64_t>(items.size());
  cluster.ChargeUniformRound((n + cluster.p() - 1) / cluster.p());
  cluster.ChargeUniformRound((n + cluster.p() - 1) / cluster.p());

  std::stable_sort(items.begin(), items.end(),
                   [](const PackedItem& a, const PackedItem& b) {
                     return a.weight > b.weight;
                   });
  Packing out;
  double current_sum = 0;
  int current_group = -1;
  for (const auto& item : items) {
    CHECK_GE(item.weight, 0.0);
    CHECK_LE(item.weight, 1.0 + 1e-12);
    int& group = out.group_of[item.id];
    if (item.weight <= 0.0) {
      // Zero-weight items (e.g. empty arm groups) ride along in the most
      // recent group: they add nothing to its sum and must not open a
      // group of their own, which would break m <= 1 + 2*sum(w). They
      // sort last, so a group exists unless every weight is zero.
      if (out.groups == 0) out.groups = 1;
      group = current_group >= 0 ? current_group : out.groups - 1;
      continue;
    }
    if (item.weight >= 0.5) {
      group = out.groups++;
      continue;
    }
    if (current_group < 0 || current_sum + item.weight > 1.0) {
      current_group = out.groups++;
      current_sum = 0;
    }
    group = current_group;
    current_sum += item.weight;
    if (current_sum > 0.5) current_group = -1;  // group is full enough
  }
  return out;
}

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_PRIMITIVES_H_
