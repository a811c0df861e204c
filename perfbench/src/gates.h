// The benchmark's two correctness gates, kept apart from the driver so the
// self-test can feed them altered inputs.
//
//  * Output correctness: a served result must equal the reference
//    evaluator's (algorithms/reference.h) on the same relations, and a
//    faulted result must equal its fault-free twin. Results are compared
//    by size and 64-bit digest of their Normalize()d form.
//  * Ledger determinism: the exact cost ledger of every query — the
//    paper's load, rounds and comm plus the recovery counters — must be
//    identical in every replay of the stream, traced or not. A mismatch
//    fails the run; it is never averaged away.

#ifndef PERFBENCH_GATES_H_
#define PERFBENCH_GATES_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/relation/relation.h"

namespace perfbench {

// Everything about one served query that must replay exactly.
struct QueryLedger {
  bool ok = false;
  bool cache_hit = false;
  std::string algorithm;
  // Planning cost, charged only when the plan was computed (cache miss).
  parjoin::mpc::Cluster::Stats planning;
  parjoin::mpc::Cluster::Stats execution;
  int attempts = 0;
  int replans = 0;
  int budget_aborts = 0;
  std::int64_t out_tuples = 0;
  std::uint64_t digest = 0;  // ResultDigest of the served result

  bool operator==(const QueryLedger& o) const {
    return ok == o.ok && cache_hit == o.cache_hit &&
           algorithm == o.algorithm && SameStats(planning, o.planning) &&
           SameStats(execution, o.execution) && attempts == o.attempts &&
           replans == o.replans && budget_aborts == o.budget_aborts &&
           out_tuples == o.out_tuples && digest == o.digest;
  }

  static bool SameStats(const parjoin::mpc::Cluster::Stats& a,
                        const parjoin::mpc::Cluster::Stats& b) {
    return a.rounds == b.rounds && a.max_load == b.max_load &&
           a.total_comm == b.total_comm &&
           a.critical_path == b.critical_path &&
           a.recovery_comm == b.recovery_comm &&
           a.retransmits == b.retransmits && a.crashes == b.crashes &&
           a.resumes == b.resumes && a.resumed_rounds == b.resumed_rounds &&
           a.rebalances == b.rebalances &&
           a.rebalance_comm == b.rebalance_comm;
  }
};

// Order-sensitive digest of a Normalize()d relation: equal digests across
// replays of one query mean equal results.
template <typename S>
std::uint64_t ResultDigest(const parjoin::Relation<S>& rel) {
  std::uint64_t h = 0x62656e6368ULL;
  for (const auto& t : rel.tuples()) {
    h = parjoin::HashCombine(h, t.row.Hash());
    h = parjoin::HashCombine(h, static_cast<std::uint64_t>(t.w));
  }
  return h;
}

// "" when the served result (digest and size of its Normalize()d form)
// equals `expected`; otherwise what differs. Results are compared by
// digest so the benchmark never holds served results past their query.
template <typename S>
std::string CompareResult(std::uint64_t served_digest,
                          std::int64_t served_tuples,
                          const parjoin::Relation<S>& expected) {
  if (served_digest == ResultDigest(expected) &&
      served_tuples == expected.size()) {
    return "";
  }
  return "served " + std::to_string(served_tuples) +
         " tuples, expected " + std::to_string(expected.size()) +
         (served_tuples == expected.size() ? " (contents differ)" : "");
}

// "" when every replay's ledger equals the reference replay's, query by
// query; otherwise the first mismatch. `what` names the replay compared.
inline std::string CompareLedgers(const std::vector<QueryLedger>& reference,
                                  const std::vector<QueryLedger>& replay,
                                  const std::string& what) {
  if (reference.size() != replay.size()) {
    return what + ": " + std::to_string(replay.size()) +
           " queries, reference pass has " +
           std::to_string(reference.size());
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (reference[i] == replay[i]) continue;
    const QueryLedger& a = reference[i];
    const QueryLedger& b = replay[i];
    std::ostringstream os;
    os << what << ": query " << i << " ledger differs (algorithm "
       << a.algorithm << "/" << b.algorithm << ", rounds "
       << a.execution.rounds << "/" << b.execution.rounds << ", comm "
       << a.execution.total_comm << "/" << b.execution.total_comm
       << ", max_load " << a.execution.max_load << "/"
       << b.execution.max_load << ", digest " << a.digest << "/" << b.digest
       << ")";
    return os.str();
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_GATES_H_
