// Deterministic MPC primitives (paper §2.1). All run in O(1) rounds with
// load O(N/p) for input size N, assuming N >= p^{1+eps}.
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
// independent by the per-part boundary summaries of SummarizeKeyRuns).
// Key/compare/combine functors may be invoked concurrently across parts
// and must not mutate shared state. Outputs and charged loads are
// bit-identical for every thread count (PARJOIN_THREADS=1 included).

#ifndef PARJOIN_MPC_PRIMITIVES_H_
#define PARJOIN_MPC_PRIMITIVES_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
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

// Per-part boundary summary of a key-sorted Dist: the precomputation that
// lets the SortGroupedByKey/ReduceByKey fix rounds emit every destination
// part independently (and therefore threaded) instead of walking all
// earlier parts. head_home[s] names the part where the key run containing
// part s's *first* item begins — only the leading run of a part can
// belong to an earlier part, because the data is globally sorted. A run
// spanning parts t..u forces every part strictly between t and u to be
// single-key, so head_home is a chain computable in O(p) from first/last
// keys alone.
template <typename Key>
struct KeyRunSummary {
  // All vectors are indexed by part. nonempty is char, not bool: the
  // entries are written concurrently and std::vector<bool> packs bits.
  std::vector<char> nonempty;
  std::vector<Key> first_key;
  std::vector<Key> last_key;
  std::vector<std::int64_t> leading_len;  // items equal to first_key
  std::vector<int> head_home;
};

template <typename T, typename KeyFn>
auto SummarizeKeyRuns(const Dist<T>& sorted, KeyFn key_fn) {
  using Key = std::decay_t<decltype(key_fn(std::declval<const T&>()))>;
  const int parts = sorted.num_parts();
  KeyRunSummary<Key> sum;
  sum.nonempty.assign(static_cast<size_t>(parts), 0);
  sum.first_key.resize(static_cast<size_t>(parts));
  sum.last_key.resize(static_cast<size_t>(parts));
  sum.leading_len.assign(static_cast<size_t>(parts), 0);
  sum.head_home.resize(static_cast<size_t>(parts));
  ParallelFor(parts, [&](int s) {
    const auto& part = sorted.part(s);
    if (part.empty()) return;
    const size_t idx = static_cast<size_t>(s);
    sum.nonempty[idx] = 1;
    sum.first_key[idx] = key_fn(part.front());
    sum.last_key[idx] = key_fn(part.back());
    std::int64_t len = 1;
    while (len < static_cast<std::int64_t>(part.size()) &&
           key_fn(part[static_cast<size_t>(len)]) == sum.first_key[idx]) {
      ++len;
    }
    sum.leading_len[idx] = len;
  });
  int prev = -1;  // previous non-empty part
  for (int s = 0; s < parts; ++s) {
    const size_t idx = static_cast<size_t>(s);
    sum.head_home[idx] = s;
    if (sum.nonempty[idx] == 0) continue;
    if (prev >= 0 &&
        sum.last_key[static_cast<size_t>(prev)] == sum.first_key[idx]) {
      // The run continues from prev. If prev is single-key the run began
      // even earlier and prev's head_home already names where.
      const size_t pidx = static_cast<size_t>(prev);
      sum.head_home[idx] = sum.first_key[pidx] == sum.last_key[pidx]
                               ? sum.head_home[pidx]
                               : prev;
    }
    prev = s;
  }
  return sum;
}

// The fix round's charge: every item of a leading run that continues an
// earlier part's run ships one unit to the run's home part.
template <typename Key>
std::vector<std::int64_t> FixRoundReceived(const KeyRunSummary<Key>& runs) {
  const size_t parts = runs.nonempty.size();
  std::vector<std::int64_t> received(parts, 0);
  for (size_t idx = 0; idx < parts; ++idx) {
    if (runs.nonempty[idx] != 0 &&
        runs.head_home[idx] != static_cast<int>(idx)) {
      received[static_cast<size_t>(runs.head_home[idx])] +=
          runs.leading_len[idx];
    }
  }
  return received;
}

// Moves the key-sorted `items` onto the end of *out, combining adjacent
// equal keys left to right.
template <typename T, typename KeyFn, typename CombineFn>
void FoldAdjacentEqual(std::vector<T>& items, KeyFn key_fn, CombineFn combine,
                       std::vector<T>* out) {
  for (auto& item : items) {
    if (!out->empty() && key_fn(out->back()) == key_fn(item)) {
      combine(&out->back(), item);
    } else {
      out->push_back(std::move(item));
    }
  }
}

}  // namespace internal_primitives

// --- Sorting [Goodrich '99] -------------------------------------------------
//
// Redistributes items so that part i holds the i-th contiguous chunk of the
// globally sorted order, chunks of size ceil(N/num_parts). As-executed
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
Dist<T> Sort(Cluster& cluster, Dist<T> in, Less less, int num_parts = 0) {
  TraceScope trace(cluster, "sort");
  if (num_parts == 0) num_parts = cluster.p();
  ParallelFor(in.num_parts(), [&](int s) {
    auto& part = in.part(s);
    std::stable_sort(part.begin(), part.end(), less);
  });
  std::vector<T> all =
      internal_primitives::MergeSortedRuns(std::move(in.parts()), less);
  Dist<T> out = ScatterEvenly(std::move(all), num_parts);
  std::vector<std::int64_t> received(static_cast<size_t>(num_parts), 0);
  for (int s = 0; s < num_parts; ++s) {
    received[static_cast<size_t>(s)] =
        static_cast<std::int64_t>(out.part(s).size());
  }
  cluster.ChargeRound(received);
  return out;
}

// Sorts by a key projection and then moves every run of equal keys entirely
// onto the part where the run begins (the paper's "tuples with the same
// value land on the same server or two consecutive servers; in the latter
// case use another round" fix, generalized to runs spanning several parts).
// As-executed: the sort round plus one fix round charging the moved tuples.
// Only sensible when every key group fits on a server (callers guarantee
// this, e.g. LinearSparseMM where degrees are < N/p).
// Consumes its input: pass std::move(dist) to avoid copying the parts.
template <typename T, typename KeyFn>
Dist<T> SortGroupedByKey(Cluster& cluster, Dist<T> in, KeyFn key_fn,
                         int num_parts = 0) {
  TraceScope trace(cluster, "sort_grouped");
  if (num_parts == 0) num_parts = cluster.p();
  Dist<T> sorted = Sort(
      cluster, std::move(in),
      [&](const T& a, const T& b) { return key_fn(a) < key_fn(b); },
      num_parts);

  // Fix round: a key run that starts in part s is moved entirely to part
  // s. The boundary summary pins down every move — only a part's leading
  // run can belong to an earlier part — so destination t's output is its
  // own items minus a forwarded leading run, plus the leading runs of the
  // later parts whose head_home is t. Destinations touch disjoint slices
  // of `sorted`, so emission runs under ParallelFor; the ledger charge is
  // identical to the old per-item walk (each moved tuple charges one unit
  // to the run's home).
  const auto runs = internal_primitives::SummarizeKeyRuns(sorted, key_fn);
  std::vector<std::int64_t> received =
      internal_primitives::FixRoundReceived(runs);
  Dist<T> out(num_parts);
  ParallelFor(num_parts, [&](int t) {
    const size_t tdx = static_cast<size_t>(t);
    if (runs.nonempty[tdx] == 0) return;
    // Later parts whose leading run starts here: a chain of single-key
    // parts homed at t, closed by the part where the run ends. At most
    // one destination's chain is alive at any source part, so the scans
    // total O(p) across all destinations.
    std::vector<int> feeders;
    std::int64_t incoming = 0;
    for (int s = t + 1; s < num_parts; ++s) {
      const size_t sdx = static_cast<size_t>(s);
      if (runs.nonempty[sdx] == 0) continue;
      if (runs.head_home[sdx] != t) break;
      feeders.push_back(s);
      incoming += runs.leading_len[sdx];
      if (!(runs.first_key[sdx] == runs.last_key[sdx])) break;
    }
    auto& src = sorted.part(t);
    const std::int64_t keep_from =
        runs.head_home[tdx] != t ? runs.leading_len[tdx] : 0;
    auto& dst = out.part(t);
    dst.reserve(static_cast<size_t>(
        static_cast<std::int64_t>(src.size()) - keep_from + incoming));
    dst.insert(dst.end(), std::make_move_iterator(src.begin() + keep_from),
               std::make_move_iterator(src.end()));
    for (int s : feeders) {
      auto& fsrc = sorted.part(s);
      dst.insert(dst.end(), std::make_move_iterator(fsrc.begin()),
                 std::make_move_iterator(
                     fsrc.begin() +
                     runs.leading_len[static_cast<size_t>(s)]));
    }
  });
  cluster.ChargeRound(received);
  return out;
}

// --- Reduce-by-key [Hu, Tao, Yi '17] ---------------------------------------
//
// Computes the "sum" (any associative, commutative combine) of values per
// key. As-executed: local pre-aggregation (free), a sort of the
// pre-aggregated items (load M/num_parts for M <= N locally-distinct
// items), and a boundary-merge fix round.
//
// KeyFn:      T -> K (K ordered and equality-comparable)
// CombineFn:  (T* accumulator, const T& item) merges item into accumulator.
//             Must be associative: the fix round folds each part locally
//             before merging run continuations into the run's home part.
//
// This overload consumes its input (the parts are sorted in place during
// pre-aggregation); pass std::move(dist) to select it. A copying overload
// for callers that still need the input follows below.
template <typename T, typename KeyFn, typename CombineFn>
Dist<T> ReduceByKey(Cluster& cluster, Dist<T>&& in, KeyFn key_fn,
                    CombineFn combine, int num_parts = 0) {
  TraceScope trace(cluster, "reduce_by_key");
  if (num_parts == 0) num_parts = cluster.p();

  // Local pre-aggregation: sort each part by key in place, combine
  // adjacent equals. Parts are independent, so the pass is threaded.
  Dist<T> pre(in.num_parts());
  ParallelFor(in.num_parts(), [&](int s) {
    auto& local = in.part(s);
    std::stable_sort(local.begin(), local.end(),
                     [&](const T& a, const T& b) {
                       return key_fn(a) < key_fn(b);
                     });
    internal_primitives::FoldAdjacentEqual(local, key_fn, combine,
                                           &pre.part(s));
    local.clear();
    local.shrink_to_fit();
  });

  // Global sort of pre-aggregated items.
  Dist<T> sorted = Sort(
      cluster, std::move(pre),
      [&](const T& a, const T& b) { return key_fn(a) < key_fn(b); },
      num_parts);

  // Fix round. Fold each part locally (adjacent equals combine left to
  // right; threaded, parts are independent), then use the boundary
  // summary to emit every destination independently: destination t keeps
  // its folded items — minus a leading entry whose run started earlier —
  // and absorbs the folded leading entries of the later parts homed at t,
  // in part order. The charge is identical to the old per-item walk:
  // every raw item of a leading run that continues an earlier part's run
  // ships one unit to the run's home.
  const auto runs = internal_primitives::SummarizeKeyRuns(sorted, key_fn);
  Dist<T> folded(num_parts);
  ParallelFor(num_parts, [&](int s) {
    internal_primitives::FoldAdjacentEqual(sorted.part(s), key_fn, combine,
                                           &folded.part(s));
  });
  std::vector<std::int64_t> received =
      internal_primitives::FixRoundReceived(runs);
  Dist<T> out(num_parts);
  ParallelFor(num_parts, [&](int t) {
    const size_t tdx = static_cast<size_t>(t);
    if (runs.nonempty[tdx] == 0) return;
    auto& src = folded.part(t);
    const size_t keep_from = runs.head_home[tdx] != t ? 1 : 0;
    if (keep_from >= src.size()) return;  // part fully forwarded
    auto& dst = out.part(t);
    dst.reserve(src.size() - keep_from);
    dst.insert(dst.end(),
               std::make_move_iterator(src.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           keep_from)),
               std::make_move_iterator(src.end()));
    // Absorb run continuations: the folded leading entry of every later
    // part homed here (their forwarded entry 0, untouched by their own
    // emission — the slices are disjoint). Same chain walk as
    // SortGroupedByKey: O(p) total across destinations.
    for (int s = t + 1; s < num_parts; ++s) {
      const size_t sdx = static_cast<size_t>(s);
      if (runs.nonempty[sdx] == 0) continue;
      if (runs.head_home[sdx] != t) break;
      combine(&dst.back(), folded.part(s).front());
      if (!(runs.first_key[sdx] == runs.last_key[sdx])) break;
    }
  });
  cluster.ChargeRound(received);
  return out;
}

// Copying overload: keeps the caller's Dist intact at the price of one
// copy of every part. Prefer std::move(dist) where the input is dead.
template <typename T, typename KeyFn, typename CombineFn>
Dist<T> ReduceByKey(Cluster& cluster, const Dist<T>& in, KeyFn key_fn,
                    CombineFn combine, int num_parts = 0) {
  return ReduceByKey(cluster, Dist<T>(in.parts()), key_fn, combine,
                     num_parts);
}

// --- Parallel packing [Hu & Yi '19] ----------------------------------------
//
// Given weights 0 <= w_i <= 1, groups the ids into m sets with per-set sum
// <= 1 and (all but one set) sum >= 1/2; m <= 1 + 2*sum(w). Modeled-linear:
// the answer is computed centrally and two rounds of ceil(N/p) are charged
// (the distributed realization is a prefix-sum + interval assignment).
// Returns group ids aligned with `items`; ids are dense in [0, m).
struct PackedItem {
  std::int64_t id = 0;
  double weight = 0;
  int group = -1;
};

inline std::vector<PackedItem> ParallelPacking(
    Cluster& cluster, std::vector<PackedItem> items) {
  TraceScope trace(cluster, "packing");
  const std::int64_t n = static_cast<std::int64_t>(items.size());
  cluster.ChargeUniformRound((n + cluster.p() - 1) / cluster.p());
  cluster.ChargeUniformRound((n + cluster.p() - 1) / cluster.p());

  std::stable_sort(items.begin(), items.end(),
                   [](const PackedItem& a, const PackedItem& b) {
                     return a.weight > b.weight;
                   });
  int next_group = 0;
  double current_sum = 0;
  int current_group = -1;
  for (auto& item : items) {
    CHECK_GE(item.weight, 0.0);
    CHECK_LE(item.weight, 1.0 + 1e-12);
    if (item.weight <= 0.0) {
      // Zero-weight items (e.g. empty arm groups) ride along in the most
      // recent group: they add nothing to its sum and must not open a
      // group of their own, which would break m <= 1 + 2*sum(w). They
      // sort last, so a group exists unless every weight is zero.
      if (next_group == 0) next_group = 1;
      item.group = current_group >= 0 ? current_group : next_group - 1;
      continue;
    }
    if (item.weight >= 0.5) {
      item.group = next_group++;
      continue;
    }
    if (current_group < 0 || current_sum + item.weight > 1.0) {
      current_group = next_group++;
      current_sum = 0;
    }
    item.group = current_group;
    current_sum += item.weight;
    if (current_sum > 0.5) current_group = -1;  // group is full enough
  }
  return items;
}

// --- Multi-search / predecessor [Hu, Tao, Yi '17] ---------------------------
//
// For each x in X, finds the largest y in Y with y <= x (or kNoPredecessor).
// Modeled-linear: two rounds of ceil((|X|+|Y|)/p). (The distributed
// realization co-sorts X and Y and propagates run heads.)
inline constexpr std::int64_t kNoPredecessor =
    std::numeric_limits<std::int64_t>::min();

std::vector<std::int64_t> MultiSearch(Cluster& cluster,
                                      const std::vector<std::int64_t>& xs,
                                      std::vector<std::int64_t> ys);

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_PRIMITIVES_H_
