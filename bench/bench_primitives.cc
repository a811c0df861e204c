// E10 — §2.1 MPC primitives: the multi-thread scaling sweep (wall time at
// fixed N, p across PARJOIN_THREADS settings, outputs and loads verified
// bit-identical), the linear-load property (printed table), and micro
// throughput (google-benchmark). Every primitive must stay at O(N/p)
// load; the table reports measured load / (N/p) ratios. Sweep results are
// appended to the BENCH_parjoin.json trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/query/dangling.h"
#include "parjoin/relation/ops.h"
#include "parjoin/sketch/kmv.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

std::vector<std::pair<std::int64_t, std::int64_t>> MakePairs(
    std::int64_t n, std::int64_t keys, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  items.reserve(static_cast<size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    items.emplace_back(rng.Uniform(0, keys - 1), rng.Uniform(1, 9));
  }
  return items;
}

void BM_Sort(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  mpc::Cluster cluster(64);
  auto items = MakePairs(n, n, 1);
  auto dist = mpc::ScatterEvenly(items, 64);
  for (auto _ : state) {
    auto sorted = mpc::Sort(cluster, dist, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    benchmark::DoNotOptimize(sorted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Sort)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_ReduceByKey(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  mpc::Cluster cluster(64);
  auto items = MakePairs(n, n / 16, 2);
  auto dist = mpc::ScatterEvenly(items, 64);
  for (auto _ : state) {
    auto reduced = mpc::ReduceByKey(
        cluster, dist, [](const auto& kv) { return kv.first; },
        [](auto* acc, const auto& kv) { acc->second += kv.second; });
    benchmark::DoNotOptimize(reduced);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReduceByKey)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_Exchange(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  mpc::Cluster cluster(64);
  auto items = MakePairs(n, n, 3);
  auto dist = mpc::ScatterEvenly(items, 64);
  for (auto _ : state) {
    auto parted = mpc::Exchange(cluster, dist, 64, [](const auto& kv) {
      return static_cast<int>(Mix64(static_cast<std::uint64_t>(kv.first)) %
                              64);
    });
    benchmark::DoNotOptimize(parted);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Exchange)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_KmvInsert(benchmark::State& state) {
  SeededHash hash(7);
  std::int64_t i = 0;
  Kmv kmv;
  for (auto _ : state) {
    kmv.AddHash(hash(static_cast<std::uint64_t>(i++)));
    benchmark::DoNotOptimize(kmv);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KmvInsert);

// One thread-sweep measurement: a primitive run under a forced thread
// count. The output parts and the cluster ledger are captured so every
// setting can be verified bit-identical to the sequential run.
struct SweepOutcome {
  bench::RunResult result;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> parts;
};

// The ledger columns a BENCH_parjoin.json row carries.
auto LedgerColumns(const mpc::Cluster::Stats& s) {
  return std::tie(s.max_load, s.rounds, s.total_comm, s.critical_path,
                  s.recovery_comm);
}

void RunThreadSweep(std::vector<bench::BenchJsonEntry>* json_entries) {
  const std::int64_t n = 1 << 20;
  const int p = 64;
  std::cout << "Thread scaling (N = 2^20, p = " << p
            << "; outputs and Stats verified identical across settings):\n";
  auto items = MakePairs(n, n, 1);
  const auto input = mpc::ScatterEvenly(std::move(items), p);

  using Primitive =
      std::function<SweepOutcome(mpc::Cluster&,
                                 const mpc::Dist<std::pair<std::int64_t,
                                                           std::int64_t>>&)>;
  const std::vector<std::pair<std::string, Primitive>> primitives = {
      {"sort",
       [](mpc::Cluster& c, const auto& in) {
         auto out = mpc::Sort(c, in, [](const auto& a, const auto& b) {
           return a.first < b.first;
         });
         return SweepOutcome{{}, std::move(out.parts())};
       }},
      {"exchange",
       [](mpc::Cluster& c, const auto& in) {
         auto out = mpc::Exchange(c, in, 64, [](const auto& kv) {
           return static_cast<int>(
               Mix64(static_cast<std::uint64_t>(kv.first)) % 64);
         });
         return SweepOutcome{{}, std::move(out.parts())};
       }},
      {"reduce-by-key",
       [](mpc::Cluster& c, const auto& in) {
         auto out = mpc::ReduceByKey(
             c, in, [](const auto& kv) { return kv.first % 4096; },
             [](auto* acc, const auto& kv) { acc->second += kv.second; });
         return SweepOutcome{{}, std::move(out.parts())};
       }},
  };

  TablePrinter table({"primitive", "threads", "wall_ms", "speedup",
                      "max_load", "rounds"});
  for (const auto& [name, primitive] : primitives) {
    SweepOutcome sequential;
    for (int threads : {1, 2, 4, 8}) {
      SetParallelForThreads(threads);
      mpc::Cluster c(p);
      Stopwatch watch;
      SweepOutcome outcome = primitive(c, input);
      outcome.result.wall_ms = watch.ElapsedMillis();
      outcome.result.stats = c.stats();
      const mpc::Cluster::Stats& s = outcome.result.stats;
      if (threads == 1) {
        sequential = outcome;
      } else {
        CHECK(outcome.parts == sequential.parts)
            << name << ": output differs at threads=" << threads;
        CHECK(LedgerColumns(s) == LedgerColumns(sequential.result.stats))
            << name << ": ledger differs at threads=" << threads;
      }
      table.AddRow({name, Fmt(static_cast<std::int64_t>(threads)),
                    Fmt(outcome.result.wall_ms),
                    bench::Ratio(sequential.result.wall_ms,
                                 outcome.result.wall_ms),
                    Fmt(s.max_load), Fmt(static_cast<std::int64_t>(s.rounds))});
      bench::BenchJsonEntry entry;
      entry.experiment = "E10";
      entry.name = name + "/n=1048576/p=64/threads=" + std::to_string(threads);
      entry.n = n;
      entry.p = p;
      entry.threads = threads;
      entry.result = outcome.result;
      json_entries->push_back(std::move(entry));
    }
  }
  SetParallelForThreads(0);
  table.Print(std::cout);
  std::cout << std::endl;
}

void PrintLinearLoadTable() {
  std::cout << "\nLinear-load property (N = 2^18, p = 64; ratio = measured "
               "load / (N/p)):\n";
  TablePrinter table({"primitive", "load", "N/p", "ratio", "rounds"});
  const std::int64_t n = 1 << 18;
  const int p = 64;
  const std::int64_t per = n / p;
  const auto add_row = [&](const std::string& primitive,
                           const mpc::Cluster& c, std::int64_t base) {
    const mpc::Cluster::Stats& s = c.stats();
    table.AddRow({primitive, Fmt(s.max_load), Fmt(base),
                  bench::Ratio(static_cast<double>(s.max_load),
                               static_cast<double>(base)),
                  Fmt(static_cast<std::int64_t>(s.rounds))});
  };

  {
    mpc::Cluster c(p);
    auto dist = mpc::ScatterEvenly(MakePairs(n, n, 1), p);
    mpc::Sort(c, dist,
              [](const auto& a, const auto& b) { return a.first < b.first; });
    add_row("sort", c, per);
  }
  {
    mpc::Cluster c(p);
    auto dist = mpc::ScatterEvenly(MakePairs(n, 64, 2), p);  // heavy skew
    mpc::ReduceByKey(
        c, dist, [](const auto& kv) { return kv.first; },
        [](auto* acc, const auto& kv) { acc->second += kv.second; });
    add_row("reduce-by-key (64 keys)", c, per);
  }
  {
    mpc::Cluster c(p);
    std::vector<mpc::PackedItem> items;
    Rng rng(5);
    for (std::int64_t i = 0; i < n / 16; ++i) {
      items.push_back({i, rng.UniformDouble() * 0.9 + 0.05});
    }
    mpc::ParallelPacking(c, std::move(items));
    add_row("parallel-packing", c, n / 16 / p);
  }
  {
    mpc::Cluster c(p);
    MatMulGenConfig cfg;
    cfg.n1 = cfg.n2 = n / 2;
    cfg.dom_a = n / 8;
    cfg.dom_b = n / 32;
    cfg.dom_c = n / 8;
    auto instance = GenMatMulRandom<CountingSemiring>(c, cfg);
    RemoveDangling(c, &instance);
    add_row("remove-dangling (matmul)", c, per);
  }
  table.Print(std::cout);
  std::cout << std::endl;
}

// --- E6: final-merge strategy & fix-round ablation ---------------------------

using PairRuns =
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>;

// (a) The same presorted runs merged by the old pairwise ladder vs the
// splitter-partitioned multiway merge, at forced thread counts. The
// outputs are verified identical every time — the strategies may differ
// only in wall time (at threads=1 the splitter path falls back to the
// ladder, so there is nothing to regress).
void RunMergeAblation(std::vector<bench::BenchJsonEntry>* json_entries) {
  const std::int64_t n = 1 << 20;
  const int run_count = 64;
  std::cout << "Final-merge strategies (N = 2^20, " << run_count
            << " presorted runs; outputs verified identical):\n";
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  auto dist = mpc::ScatterEvenly(MakePairs(n, n / 4, 11), run_count);
  for (auto& part : dist.parts()) {
    std::stable_sort(part.begin(), part.end(), by_key);
  }
  const PairRuns& runs = dist.parts();

  TablePrinter table({"threads", "pairwise_ms", "splitter_ms", "speedup"});
  for (int threads : {1, 2, 4, 8}) {
    SetParallelForThreads(threads);
    PairRuns copy = runs;
    Stopwatch pairwise_watch;
    const auto pairwise = mpc::internal_primitives::MergeSortedRunsPairwise(
        std::move(copy), by_key);
    const double pairwise_ms = pairwise_watch.ElapsedMillis();
    copy = runs;
    Stopwatch splitter_watch;
    const auto splitter =
        mpc::internal_primitives::MergeSortedRuns(std::move(copy), by_key);
    const double splitter_ms = splitter_watch.ElapsedMillis();
    CHECK(pairwise == splitter)
        << "merge strategies disagree at threads=" << threads;
    table.AddRow({Fmt(static_cast<std::int64_t>(threads)), Fmt(pairwise_ms),
                  Fmt(splitter_ms),
                  bench::Ratio(pairwise_ms, splitter_ms)});
    for (const auto& [strategy, wall_ms] :
         {std::pair<std::string, double>{"pairwise", pairwise_ms},
          std::pair<std::string, double>{"splitter", splitter_ms}}) {
      bench::BenchJsonEntry entry;
      entry.experiment = "E6";
      entry.name = "merge/" + strategy +
                   "/threads=" + std::to_string(threads);
      entry.n = n;
      entry.p = run_count;
      entry.threads = threads;
      entry.result.wall_ms = wall_ms;
      json_entries->push_back(std::move(entry));
    }
  }
  SetParallelForThreads(0);
  table.Print(std::cout);
  std::cout << std::endl;
}

// (b) Directed fix-round scaling. Every source part holds the same 16
// keys, so pre-aggregation keeps them all, each key's run spans ~p/16
// sorted parts, and after the fix almost every part between a run's home
// and its end is empty. The old per-item backward walk re-scanned those
// parts for every shipped item — O(N·p) on this shape — while the fix
// round cut from the merged order (FixRound) is O(N + p log N): its wall
// time per item must not grow with p. The sweep times that fix round
// alone, on the merged order built untimed, with ReduceByKey's fold; each
// repetition's output and ledger are CHECKed equal to ReduceByKey's. The
// whole ReduceByKey, whose final merge at threads=1 is the pairwise ladder
// (log2 p passes), is timed beside it. Both report the fastest of several
// batches, so a slow moment on a shared host does not read as growth.
void RunFixRoundSweep(std::vector<bench::BenchJsonEntry>* json_entries) {
  using Pair = std::pair<std::int64_t, std::int64_t>;
  const int batches = 10;
  const int reps = 50;
  std::cout << "ReduceByKey on replicated-key shapes (16 shared keys, 1 "
               "item/key/part, threads=1;\nfastest of "
            << batches << " batches of " << reps
            << " reps; fix_us_per_item must not grow with p):\n";
  SetParallelForThreads(1);  // isolate the algorithmic effect
  const auto key_fn = [](const Pair& kv) { return kv.first; };
  const auto less = [](const Pair& a, const Pair& b) {
    return a.first < b.first;
  };
  const auto combine = [](Pair* acc, const Pair& kv) {
    acc->second += kv.second;
  };
  const auto fold = [&](auto first, auto last, std::vector<Pair>* part) {
    mpc::internal_primitives::FoldAdjacentEqual(first, last, key_fn, combine,
                                                part);
  };
  TablePrinter table(
      {"p", "n", "reps", "fix_ms", "fix_us_per_item", "reduce_us_per_item"});
  for (int p : {64, 128, 256, 512}) {
    const std::int64_t keys = 16;
    const std::int64_t n = keys * p;
    mpc::Dist<Pair> input(p);
    for (int s = 0; s < p; ++s) {
      for (std::int64_t k = 0; k < keys; ++k) {
        input.part(s).emplace_back(k, s);
      }
    }
    // The parts are already key-sorted with distinct keys, so
    // pre-aggregation leaves them as they are: the merge input is `input`.
    mpc::Cluster reference(p);
    const auto expected = mpc::ReduceByKey(reference, input, key_fn, combine);
    CHECK_EQ(expected.TotalSize(), keys);
    bench::RunResult result;
    result.stats = reference.stats();
    double fix_ms = std::numeric_limits<double>::infinity();
    double reduce_ms = std::numeric_limits<double>::infinity();
    for (int batch = 0; batch < batches; ++batch) {
      double batch_ms = 0;
      for (int rep = 0; rep < reps; ++rep) {
        mpc::Cluster c(p);
        auto merged = mpc::internal_primitives::MergeAndChargeSort(
            c, input.parts(), less);
        Stopwatch watch;
        const auto out = mpc::internal_primitives::FixRound(
            c, std::move(merged), less, fold);
        batch_ms += watch.ElapsedMillis();
        CHECK(out.parts() == expected.parts());
        CHECK(LedgerColumns(c.stats()) == LedgerColumns(result.stats));
      }
      fix_ms = std::min(fix_ms, batch_ms);
      Stopwatch watch;
      for (int rep = 0; rep < reps; ++rep) {
        mpc::Cluster c(p);
        const auto out = mpc::ReduceByKey(c, input, key_fn, combine);
        CHECK_EQ(out.TotalSize(), keys);
      }
      reduce_ms = std::min(reduce_ms, watch.ElapsedMillis());
    }
    result.wall_ms = fix_ms;
    const auto per_item = [&](double ms) {
      return ms * 1000.0 / static_cast<double>(n * reps);
    };
    table.AddRow({Fmt(static_cast<std::int64_t>(p)), Fmt(n),
                  Fmt(static_cast<std::int64_t>(reps)), Fmt(fix_ms),
                  Fmt(per_item(fix_ms)), Fmt(per_item(reduce_ms))});
    bench::BenchJsonEntry entry;
    entry.experiment = "E6";
    entry.name = "fixround/reduce/p=" + std::to_string(p);
    entry.n = n;
    entry.p = p;
    entry.threads = 1;
    entry.result = result;
    json_entries->push_back(std::move(entry));
  }
  SetParallelForThreads(0);
  table.Print(std::cout);
  std::cout << std::endl;
}

bool RunE6() {
  bench::PrintHeader(
      "E6", "final-merge & fix-round ablation",
      "Pairwise ladder vs splitter multiway merge, and the "
      "merged-order fix round's scaling in p.");
  std::vector<bench::BenchJsonEntry> entries;
  RunMergeAblation(&entries);
  RunFixRoundSweep(&entries);
  return bench::WriteBenchJson("E6", entries);
}

}  // namespace
}  // namespace parjoin

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == std::string("--e6-only")) {
      // CI smoke mode: just the merge/fix-round ablation and its JSON.
      return parjoin::RunE6() ? 0 : 1;
    }
  }
  parjoin::bench::PrintHeader(
      "E10", "§2.1 primitive costs",
      "Thread scaling, linear-load table, then micro throughput.");
  std::vector<parjoin::bench::BenchJsonEntry> entries;
  parjoin::RunThreadSweep(&entries);
  parjoin::PrintLinearLoadTable();
  const bool e10_written = parjoin::bench::WriteBenchJson("E10", entries);
  const bool e6_written = parjoin::RunE6();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return e10_written && e6_written ? 0 : 1;
}
