// The cluster's observation seam: an abstract per-round listener the
// observability layer (src/parjoin/obs/) plugs into the simulator.
//
// The contract is strictly read-only: an observer sees every charged
// round and every fault/recovery event AFTER the ledger has been updated,
// and nothing it does can change outputs, charged loads, rounds, or the
// rng stream (determinism_test and tests/obs_test.cc enforce bit-identity
// with an observer attached vs. not). When no observer is attached the
// entire path is one null-pointer check per charged round — the zero-cost
// no-op contract tracing is allowed to rely on.
//
// Observers are called from the charging thread only (round charging is a
// main-thread operation; ParallelFor workers never charge), so
// implementations need no internal locking for the observer path itself.

#ifndef PARJOIN_MPC_OBSERVER_H_
#define PARJOIN_MPC_OBSERVER_H_

#include <cstdint>
#include <string>

namespace parjoin {
namespace mpc {

// One charged communication round, as recorded by the ledger.
struct RoundRecord {
  int round = 0;                // 1-based charged-round index since reset
  std::int64_t max_load = 0;    // max tuples received by any server
  std::int64_t tuples = 0;      // total tuples moved this round
  bool recovery = false;        // checkpoint replication / restore traffic
  double straggle_factor = 1;   // critical-path stretch applied (>= 1)
  // True when a resumed re-execution fast-forwarded over this round: its
  // work is re-covered by the restored interval checkpoint, so nothing
  // was charged to the ledger (mpc/cluster.h, Cluster::BeginAttempt).
  bool resumed = false;
};

// A discrete fault/recovery event with its structured payload. `server`,
// `factor`, and `moved` carry the sentinel defaults below when the event
// kind has no such attribute (the trace layer omits them from output).
struct EventRecord {
  const char* kind = "";   // "straggler", "rebalance", "resume", ...
  int round = 0;           // charged round (0 when not tied to a round)
  std::string detail;
  int server = -1;         // straggle/re-balance victim server
  double factor = 0;       // injected straggle delay factor
  std::int64_t moved = -1; // tuples shipped by a re-balance round
};

class RoundObserver {
 public:
  virtual ~RoundObserver() = default;

  // Called once per charged round, after the ledger is updated and before
  // any abort (budget, crash) unwinds the round.
  virtual void OnRound(const RoundRecord& record) = 0;

  // Discrete events: "straggler", "retransmit", "crash", "budget_abort",
  // "checkpoint", "rebalance", "resume", plus executor-level markers
  // ("attempt", "replay", "degrade", "replan", "plan"). Every event
  // arrives here, with its payload (straggle victim and factor,
  // re-balanced tuple count) when its kind carries one.
  virtual void OnEventRecord(const EventRecord& event) = 0;

  // Shorthand for an event without a payload. `round` is the
  // charged-round index the event is associated with (0 when not tied to
  // a round).
  void OnEvent(const char* kind, int round, const std::string& detail) {
    OnEventRecord(EventRecord{kind, round, detail});
  }

  // Scope labels: primitives push their name ("sort", "exchange", ...) so
  // round records can be attributed. Scopes nest.
  virtual void PushScope(const char* name) = 0;
  virtual void PopScope() = 0;
};

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_OBSERVER_H_
