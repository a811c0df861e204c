// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a seeded schedule of three fault kinds, all expressed in
// terms of *charged rounds* (the monotone count of ChargeRound boundaries
// since the last ResetStats):
//
//  * fail-stop crash    — at the first round boundary at or after the
//                         scheduled round, one server leaves; the Cluster
//                         shrinks its live set and aborts the attempt
//                         (RoundAbort) so the executor replays from the
//                         last checkpoint on p-1 servers.
//  * straggler          — the scheduled round's wall-clock is stretched by
//                         a delay factor; the simulator folds it into the
//                         Stats::critical_path metric (Σ round_max × factor)
//                         without perturbing loads or outputs.
//  * message corruption — at the first Exchange round with traffic at or
//                         after the scheduled round, one destination's
//                         message arrives corrupted (the event's mask names
//                         the flipped bits in the fault log) and is sent
//                         again. Outputs are unaffected, but the repair
//                         doubles that destination's received count and the
//                         extra copy is charged as recovery communication.
//                         Cluster::ChargeExchangeRound decides and charges
//                         it.
//
// Same (cluster seed, fault seed) ⇒ same schedule ⇒ same recovery path:
// the fault machinery draws exclusively from FaultConfig::seed, so faulted
// runs are exactly as reproducible as fault-free ones.

#ifndef PARJOIN_MPC_FAULTS_H_
#define PARJOIN_MPC_FAULTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace parjoin {
namespace mpc {

struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  // How many events of each kind the plan schedules.
  int crashes = 1;
  int stragglers = 1;
  int corruptions = 1;
  // Events are scheduled on charged rounds [1, horizon]. Events whose
  // scheduled round has passed fire at the next eligible boundary, so a
  // small horizon guarantees every event fires even on short algorithms.
  int horizon = 4;
  // When non-empty, crash i is pinned to crash_rounds[i] (1-based charged
  // round, may exceed the horizon) instead of drawn from [1, horizon];
  // crashes beyond the list fall back to the seeded draw. The recovery
  // test/bench matrices use this to place crashes relative to checkpoint
  // intervals deterministically.
  std::vector<int> crash_rounds;
  // Straggler delay factors are drawn uniformly from [straggle_min,
  // straggle_max] (integer units of the round's maximum load).
  double straggle_min = 2.0;
  double straggle_max = 8.0;
};

enum class FaultKind { kCrash, kStraggler, kCorruption };

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int round = 1;   // earliest charged round (1-based) at which it may fire
  int server = 0;  // crash victim / straggler id / corruption dest salt
  double factor = 1.0;                // straggler delay factor
  std::uint64_t corruption_mask = 0;  // nonzero bit flips (corruption only)
  bool fired = false;
};

// The seeded schedule. Generation is a pure function of (config, p): two
// plans from the same inputs are identical, which the schedule-determinism
// tests assert event by event.
class FaultPlan {
 public:
  FaultPlan() = default;

  static FaultPlan Generate(const FaultConfig& config, int p);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::vector<FaultEvent>& events() { return events_; }

 private:
  std::vector<FaultEvent> events_;
};

// Thrown by Cluster at a round boundary when a fail-stop crash fires or a
// load budget is exceeded. This is simulation-internal control flow: it is
// always thrown on the main thread (never from ParallelFor workers) and
// never escapes plan::PlanAndRun's recovery loop — the public error model
// stays exception-free (common/status.h).
struct RoundAbort {
  enum class Reason { kServerCrash, kLoadBudget };

  Reason reason = Reason::kServerCrash;
  int round = 0;               // charged round of the abort
  int server = -1;             // crashed server (kServerCrash)
  std::int64_t round_load = 0; // the round's max physical load
  std::int64_t budget = 0;     // exceeded budget (kLoadBudget)

  std::string ToString() const;
};

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_FAULTS_H_
