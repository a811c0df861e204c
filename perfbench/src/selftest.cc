// Self-test of the benchmark's correctness gates: each gate must pass on
// matching inputs and fire on one altered result or ledger entry.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "gates.h"
#include "parjoin/algorithms/reference.h"
#include "parjoin/query/join_tree.h"
#include "parjoin/semiring/semirings.h"

namespace {

using namespace parjoin;
using S = CountingSemiring;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  if (!cond) {
    std::cerr << "FAIL: " << what << "\n";
    failures += 1;
  }
}

Relation<S> Rel(AttrId u, AttrId v,
                const std::vector<std::vector<std::int64_t>>& rows) {
  Relation<S> rel(Schema{u, v});
  for (const auto& r : rows) rel.Add(Row{r[0], r[1]}, r[2]);
  return rel;
}

void TestOracleGate() {
  // R(A,B) ⋈ T(B,C) aggregated onto (A,C).
  StatusOr<JoinTree> tree = JoinTree::Create({{0, 1}, {1, 2}}, {0, 2});
  Expect(tree.ok(), "matmul join tree");
  const std::vector<Relation<S>> rels = {
      Rel(0, 1, {{1, 10, 2}, {2, 10, 1}, {2, 11, 3}}),
      Rel(1, 2, {{10, 7, 5}, {11, 7, 1}, {11, 8, 4}})};
  const Relation<S> expected = EvaluateReference(*tree, rels);
  Expect(expected.size() == 3, "reference result has 3 tuples");

  const auto gate = [&](const Relation<S>& served) {
    return perfbench::CompareResult(perfbench::ResultDigest(served),
                                    served.size(), expected);
  };
  Expect(gate(expected).empty(), "oracle gate passes on an equal result");

  Relation<S> altered = expected;
  altered.tuples()[1].w += 1;
  Expect(!gate(altered).empty(), "oracle gate fires on one altered weight");

  Relation<S> moved = expected;
  moved.tuples()[1].row = Row{99, 99};
  Expect(!gate(moved).empty(), "oracle gate fires on one altered row");

  Relation<S> missing = expected;
  missing.tuples().pop_back();
  Expect(!gate(missing).empty(), "oracle gate fires on a missing tuple");
}

void TestLedgerGate() {
  perfbench::QueryLedger a;
  a.ok = true;
  a.algorithm = "yannakakis";
  a.execution.rounds = 7;
  a.execution.max_load = 120;
  a.execution.total_comm = 900;
  a.execution.critical_path = 500;
  a.digest = 42;
  const std::vector<perfbench::QueryLedger> reference = {a, a};
  Expect(perfbench::CompareLedgers(reference, reference, "replay").empty(),
         "ledger gate passes on identical replays");

  for (int field = 0; field < 4; ++field) {
    std::vector<perfbench::QueryLedger> replay = reference;
    perfbench::QueryLedger& b = replay[1];
    if (field == 0) b.execution.max_load += 1;
    if (field == 1) b.execution.recovery_comm += 1;
    if (field == 2) b.planning.rounds += 1;
    if (field == 3) b.digest += 1;
    Expect(!perfbench::CompareLedgers(reference, replay, "replay").empty(),
           "ledger gate fires on altered field " + std::to_string(field));
  }
  Expect(!perfbench::CompareLedgers(reference, {a}, "replay").empty(),
         "ledger gate fires on a short replay");
}

}  // namespace

int main() {
  TestOracleGate();
  TestLedgerGate();
  if (failures > 0) return 1;
  std::cout << "perfbench gate self-test: ok\n";
  return 0;
}
