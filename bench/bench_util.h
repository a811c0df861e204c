// Shared helpers for the paper-table benchmark binaries: run an algorithm
// on a fresh cluster, collect its ledger and wall time, format report
// rows, and persist machine-readable results to the BENCH_parjoin.json
// perf trajectory.

#ifndef PARJOIN_BENCH_BENCH_UTIL_H_
#define PARJOIN_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "parjoin/mpc/cluster.h"

namespace parjoin {
namespace bench {

// One measured run: the cluster's whole ledger plus host wall time.
struct RunResult {
  mpc::Cluster::Stats stats;
  double wall_ms = 0;
};

// Runs `body` against a fresh cluster of p servers and reports its costs.
RunResult Measure(int p, std::uint64_t seed,
                  const std::function<void(mpc::Cluster&)>& body);

// "1.23x" style ratio formatting (guards against division by zero).
std::string Ratio(double numerator, double denominator);

// Prints the standard bench banner (experiment id, paper artifact, note).
void PrintHeader(const std::string& experiment_id,
                 const std::string& paper_artifact, const std::string& note);

// --- Machine-readable trajectory (BENCH_parjoin.json) -----------------------
//
// Each bench binary writes its rows to a shared JSON file so the perf
// trajectory across PRs has data points. One entry = one measured
// configuration. `name` must be unique within the experiment and must not
// contain '"' (no escaping is performed).

// One experiment-specific column of a row (E7's "qps", E9's "replans",
// ...). `json` is the value's JSON text; the writer emits it verbatim
// after the ledger columns, in list order.
struct Column {
  std::string key;
  std::string json;
};

// Column builders: an integer, a double with `decimals` fixed digits, and
// a quoted string (must not contain '"').
Column IntColumn(const std::string& key, std::int64_t value);
Column FixedColumn(const std::string& key, double value, int decimals);
Column StringColumn(const std::string& key, const std::string& value);

struct BenchJsonEntry {
  std::string experiment;  // e.g. "E1"
  std::string name;        // e.g. "sort/n=1048576/p=64/threads=4"
  std::int64_t n = 0;      // input size (0 if not meaningful)
  int p = 0;               // servers
  int threads = 0;         // ParallelForThreads() at measurement time
  RunResult result;
  std::vector<Column> columns;  // written after the ledger columns
};

// Rewrites the trajectory file at `path`, replacing every existing entry
// of `experiment` with `entries` (appended after the kept rows) and
// keeping the entries of other experiments verbatim and in order. Returns
// false (and sets *error) on I/O failure. The file format is one entry
// object per line inside a top-level "entries" array; UpdateBenchJson
// only reparses lines it wrote itself.
bool UpdateBenchJson(const std::string& path, const std::string& experiment,
                     const std::vector<BenchJsonEntry>& entries,
                     std::string* error);

// The one trajectory write of a bench main: UpdateBenchJson on
// $PARJOIN_BENCH_JSON (default "BENCH_parjoin.json" in the current
// directory). Prints "wrote N <experiment> entries to <path>" on success;
// on failure prints the error to stderr and returns false, so the bench
// exits nonzero.
bool WriteBenchJson(const std::string& experiment,
                    const std::vector<BenchJsonEntry>& entries);

}  // namespace bench
}  // namespace parjoin

#endif  // PARJOIN_BENCH_BENCH_UTIL_H_
