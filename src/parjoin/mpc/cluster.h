// The MPC cost model (paper §1.3), simulated in-process.
//
// A Cluster models p servers connected by a complete network. Computation
// proceeds in synchronous rounds; in each round every server receives
// messages, computes locally, and sends messages. The complexity measure is
// the LOAD L: the maximum number of tuples received by any server in any
// round (outgoing messages are not charged, local computation is free).
//
// The simulator executes real data movement between per-server partitions
// (see Dist<T> and Exchange) and records, for every round, how many tuples
// each server received. Algorithms are compared by their measured
// stats().max_load, exactly the quantity the paper's Table 1 bounds.
//
// Virtual servers: several of the paper's algorithms "allocate k_g servers"
// to each of many subqueries, with a total of O(p) virtual servers. The
// simulator supports destinations beyond p: virtual server v is hosted on
// physical server v mod p, and received tuples are charged to the physical
// host. Since the paper guarantees O(p) virtual servers in total, each
// physical server hosts O(1) of them and measured loads match the analysis
// up to the same constant the paper hides.
//
// Fault model (mpc/faults.h): the Cluster is its one owner. When fault
// injection is enabled, each charged round boundary consults the seeded
// FaultPlan. Stragglers stretch the round's contribution to
// stats().critical_path; a message corruption, decided here on Exchange
// rounds, doubles one destination's delivery and books the extra copy as
// recovery_comm; a fail-stop crash shrinks the live server set and aborts
// the attempt with RoundAbort so the executor can replay from its last
// checkpoint (mpc/checkpoint.h, plan/executor.h). A load budget,
// independent of fault injection, aborts any round whose measured maximum
// exceeds it — the executor's guardrail against planner mispredictions.

#ifndef PARJOIN_MPC_CLUSTER_H_
#define PARJOIN_MPC_CLUSTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "parjoin/common/checked_math.h"
#include "parjoin/common/logging.h"
#include "parjoin/common/random.h"
#include "parjoin/mpc/faults.h"
#include "parjoin/mpc/observer.h"

namespace parjoin {
namespace mpc {

class ParallelRegion;

class Cluster {
 public:
  struct Stats {
    int rounds = 0;
    std::int64_t max_load = 0;    // max over rounds and servers
    std::int64_t total_comm = 0;  // total tuples moved
    // Sum over rounds of round_max × straggle_factor: the simulated
    // wall-clock of the synchronous schedule. Equals the sum of per-round
    // maxima when no straggler fires.
    std::int64_t critical_path = 0;
    // Tuples moved for resilience rather than the algorithm itself:
    // checkpoint replication, post-crash restores, and corruption
    // retransmissions. Included in total_comm as well.
    std::int64_t recovery_comm = 0;
    int retransmits = 0;  // corrupted messages detected and re-delivered
    int crashes = 0;      // fail-stop crashes fired
    // Fine-grained recovery ledger (this file, BeginAttempt /
    // ChargeRebalanceRound): resume fast-forwards begun, algorithm rounds
    // they elided, straggler re-balance rounds charged, and the tuples
    // those re-balances shipped (also counted in recovery_comm and
    // total_comm).
    int resumes = 0;
    int resumed_rounds = 0;
    int rebalances = 0;
    std::int64_t rebalance_comm = 0;
  };

  explicit Cluster(int p, std::uint64_t seed = 0x9a3f7151c2d4e680ULL)
      : live_(p), rng_(seed), since_ckpt_(static_cast<size_t>(p), 0) {
    CHECK_GT(p, 0);
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // The number of *live* servers. Algorithms always address servers
  // 0..p()-1, so after a crash a replay naturally re-hosts the dead
  // server's virtual servers on the survivors (v mod (p-1)).
  int p() const { return live_; }

  // Source of reproducible randomness for hashing decisions inside
  // primitives (hash-partitioning seeds, KMV hash functions, ...).
  Rng& rng() { return rng_; }

  // Records one communication round. received[v] is the number of tuples
  // delivered to *virtual* server v; charges are accumulated on physical
  // server v mod p. The vector may have any size >= 0. May throw RoundAbort
  // (crash / load budget) — main thread only; see faults.h.
  void ChargeRound(const std::vector<std::int64_t>& received) {
    ApplyRound(FoldToPhysical(received), /*recovery=*/false);
  }

  // Records an Exchange round (mpc/exchange.h), the only kind a message
  // corruption can hit. A due corruption event picks the first virtual
  // destination with traffic, scanning from the event's server; that
  // message arrives corrupted and is sent again, so its received count
  // doubles and the extra copy is booked as recovery_comm. Outputs are never
  // perturbed: corruption models a detected and repaired fault.
  void ChargeExchangeRound(std::vector<std::int64_t> received) {
    const std::int64_t retransmitted = CorruptDueMessage(&received);
    ApplyRound(FoldToPhysical(received), /*recovery=*/false, retransmitted);
  }

  // Records a round of resilience traffic (checkpoint replication or
  // post-crash restore). Charged into recovery_comm as well as total_comm;
  // fault events do not fire on recovery rounds.
  void ChargeRecoveryRound(const std::vector<std::int64_t>& received) {
    ApplyRound(FoldToPhysical(received), /*recovery=*/true);
  }

  // Convenience: charges a round in which every physical server receives
  // `per_server` tuples. Used by primitives whose distributed realization
  // is known linear-load (documented per call site) but simulated centrally.
  void ChargeUniformRound(std::int64_t per_server) {
    std::vector<std::int64_t> physical(static_cast<size_t>(live_),
                                       per_server);
    ApplyRound(physical, /*recovery=*/false);
  }

  const Stats& stats() const { return stats_; }

  // Resets accounting (the ledger and the fault log) for a fresh
  // measurement. Only between algorithms: a reset inside an open parallel
  // region is a bug.
  void ResetStats() {
    CHECK(regions_.empty()) << "ResetStats inside an open parallel region";
    stats_ = Stats();
    fault_log_.clear();
    charged_rounds_ = 0;
    RestartCheckpointProgress(0);
    fast_forward_remaining_ = 0;
  }

  // --- Fault injection ------------------------------------------------------

  // Generates the deterministic schedule from config.seed and arms it.
  // Firing state and the fault log start clean. Call after the ResetStats
  // that precedes the measured run, so scheduled rounds line up.
  void EnableFaults(const FaultConfig& config) {
    plan_ = FaultPlan::Generate(config, live_);
    faults_enabled_ = true;
    fault_log_.clear();
  }
  void DisableFaults() { faults_enabled_ = false; }

  const std::vector<std::string>& fault_log() const { return fault_log_; }

  // --- Observation ----------------------------------------------------------

  // Attaches (or, with nullptr, detaches) a read-only round observer
  // (mpc/observer.h). The observer sees every charged round and fault
  // event after the ledger is updated; it can never perturb charges,
  // outputs, or the rng stream. With no observer attached the cost is one
  // null check per charged round.
  void SetObserver(RoundObserver* observer) { observer_ = observer; }
  RoundObserver* observer() const { return observer_; }

  // --- Guardrails & checkpointing -------------------------------------------

  // A round whose physical maximum exceeds `budget` throws
  // RoundAbort{kLoadBudget}. 0 disables. Independent of fault injection.
  void SetLoadBudget(std::int64_t budget) { load_budget_ = budget; }

  // Every `interval` non-recovery rounds, charges one replication round
  // that copies each server's traffic since the last checkpoint to its
  // neighbor ((s+1) mod p): the simulated cost of keeping a warm
  // checkpoint. 0 disables.
  void SetCheckpointInterval(int interval) {
    CHECK_GE(interval, 0);
    ckpt_interval_ = interval;
    RestartCheckpointProgress(0);
  }

  // --- Resume points --------------------------------------------------------

  // Algorithm (non-recovery) rounds of the current attempt covered by the
  // latest interval-checkpoint replication — the rounds a resumed
  // re-execution may fast-forward over. 0 until a replication round has
  // been charged (or when interval checkpointing is off).
  int checkpointed_rounds() const { return ckpt_covered_rounds_; }

  // Marks the start of a fresh dispatch attempt (the executor calls this
  // after restoring inputs, before re-dispatching). Per-attempt checkpoint
  // progress restarts; with skip_rounds > 0 the attempt is a RESUME: the
  // first skip_rounds non-recovery rounds of the re-execution are ELIDED.
  // An elided round keeps its position in the monotone charged-round order
  // (fault schedules stay aligned) but charges nothing — no load, comm, or
  // critical path, no fault events, no budget check, and no checkpoint
  // accumulation. The rotating replication scheme leaves each server's
  // checkpointed delta resident on a surviving neighbor, so no separate
  // bulk state-restore round is charged beyond the input restores the
  // executor already pays for.
  void BeginAttempt(int skip_rounds) {
    CHECK_GE(skip_rounds, 0);
    // The restored snapshot re-covers exactly the elided rounds, so a
    // second crash before any new replication resumes from the same point.
    RestartCheckpointProgress(skip_rounds);
    fast_forward_remaining_ = skip_rounds;
    if (skip_rounds > 0) {
      stats_.resumes += 1;
      EventRecord payload;
      payload.moved = skip_rounds;
      Emit("resume", charged_rounds_,
           "resume: fast-forwarding " + std::to_string(skip_rounds) +
               " checkpointed round(s)",
           payload);
    }
  }

  // --- Straggler re-balancing -----------------------------------------------

  // 0 (the default) keeps the passive model: an injected straggle factor
  // stretches the round's critical-path contribution. With a threshold
  // t > 0, a factor >= t is handled ACTIVELY: the victim's pending round
  // load is shipped evenly onto the other live servers in one charged
  // re-balance round, and the straggled round contributes the
  // post-re-balance effective time instead of the stretched one.
  void SetStraggleThreshold(double threshold) {
    CHECK_GE(threshold, 0);
    straggle_threshold_ = threshold;
  }

 private:
  friend class ParallelRegion;

  // --- Parallel regions -----------------------------------------------------
  //
  // Several of the paper's algorithms run many subqueries "in parallel",
  // each on its own (disjoint) group of virtual servers. The simulator
  // executes them sequentially; loads are charged per round exactly as if
  // parallel (disjoint groups cannot inflate each other's per-round
  // maxima), but a naive round count would sum the branches. A parallel
  // region fixes the ROUND accounting: the region contributes
  // max-over-branches rounds, matching the paper's O(1)-round claim.
  // Regions nest. Only the ParallelRegion RAII guard below opens one, so
  // every region is closed, on the unwind path of an aborted attempt too.
  struct Region {
    int begin_rounds = 0;
    int branch_start = 0;
    int longest_branch = 0;
  };
  void BeginParallelRegion() {
    regions_.push_back({stats_.rounds, stats_.rounds, 0});
  }
  void BeginParallelBranch() {
    Region& r = regions_.back();
    r.longest_branch =
        std::max(r.longest_branch, stats_.rounds - r.branch_start);
    r.branch_start = stats_.rounds;
  }
  void EndParallelRegion() {
    Region r = regions_.back();
    regions_.pop_back();
    r.longest_branch =
        std::max(r.longest_branch, stats_.rounds - r.branch_start);
    stats_.rounds = r.begin_rounds + r.longest_branch;
  }

  // One planned straggler re-balance: the victim's pending round load and
  // how it lands on the other live servers.
  struct Rebalance {
    int victim = 0;
    double factor = 1.0;        // the injected delay factor that triggered it
    std::int64_t moved = 0;     // tuples shipped off the victim
    std::int64_t ship_max = 0;  // max tuples any recipient takes on
    std::int64_t effective = 0; // post-re-balance round time
  };

  // Splits the victim's round load evenly across the other live servers,
  // deterministically: the remainder is handed out one tuple at a time in
  // server order.
  static Rebalance PlanRebalance(int victim, double factor,
                                 const std::vector<std::int64_t>& physical) {
    Rebalance rb;
    rb.victim = victim;
    rb.factor = factor;
    rb.moved = physical[static_cast<size_t>(victim)];
    const auto others = static_cast<std::int64_t>(physical.size()) - 1;
    std::int64_t leftover = rb.moved % others;
    for (size_t s = 0; s < physical.size(); ++s) {
      if (static_cast<int>(s) == victim) continue;
      const std::int64_t share = rb.moved / others + (leftover > 0 ? 1 : 0);
      if (leftover > 0) --leftover;
      rb.ship_max = std::max(rb.ship_max, share);
      rb.effective = std::max(rb.effective, CheckedAdd(physical[s], share));
    }
    return rb;
  }

  // The one booking step every round goes through — charged, elided
  // (resume), re-balance and checkpoint replication alike: the round takes
  // the next slot in the monotone charged-round order, enters the ledger
  // with critical-path contribution `time` unless it is elided, and is
  // reported to the observer.
  void BookRound(RoundRecord record, std::int64_t time) {
    record.round = ++charged_rounds_;
    if (record.resumed) {
      stats_.resumed_rounds += 1;
    } else {
      stats_.rounds += 1;
      stats_.max_load = std::max(stats_.max_load, record.max_load);
      stats_.total_comm = CheckedAdd(stats_.total_comm, record.tuples);
      if (record.recovery) {
        stats_.recovery_comm = CheckedAdd(stats_.recovery_comm, record.tuples);
      }
      stats_.critical_path = CheckedAdd(stats_.critical_path, time);
    }
    if (observer_ != nullptr) observer_->OnRound(record);
  }

  // The one emitter for fault-log lines: appends `line` to the log, then
  // reports it to the observer as a `kind` event at `round`, with the
  // payload fields (server, factor, moved) of `event`.
  void Emit(const char* kind, int round, std::string line,
            EventRecord event = {}) {
    fault_log_.push_back(std::move(line));
    if (observer_ == nullptr) return;
    event.kind = kind;
    event.round = round;
    event.detail = fault_log_.back();
    observer_->OnEventRecord(event);
  }

  // Charges the re-balance shipping round directly (like checkpoint
  // replication: it cannot itself straggle, crash, or trigger a
  // checkpoint). The traffic is recovery communication, itemized again in
  // rebalance_comm.
  void ChargeRebalanceRound(const Rebalance& rb) {
    stats_.rebalances += 1;
    stats_.rebalance_comm = CheckedAdd(stats_.rebalance_comm, rb.moved);
    RoundRecord record;
    record.max_load = rb.ship_max;
    record.tuples = rb.moved;
    record.recovery = true;
    BookRound(record, rb.ship_max);
    EventRecord payload;
    payload.server = rb.victim;
    payload.factor = rb.factor;
    payload.moved = rb.moved;
    Emit("rebalance", charged_rounds_,
         "rebalance at round " + std::to_string(charged_rounds_) +
             ": shipped " + std::to_string(rb.moved) +
             " tuple(s) off server " + std::to_string(rb.victim),
         payload);
  }

  std::vector<std::int64_t> FoldToPhysical(
      const std::vector<std::int64_t>& received) const {
    std::vector<std::int64_t> physical(static_cast<size_t>(live_), 0);
    for (size_t v = 0; v < received.size(); ++v) {
      std::int64_t& slot = physical[v % static_cast<size_t>(live_)];
      slot = CheckedAdd(slot, received[v]);
    }
    return physical;
  }

  // Fires the first due corruption event on an Exchange round's
  // per-destination counts and returns the re-sent tuples (0 when none
  // fires). An event that finds no traffic stays pending, and none fires
  // inside a resume window: elided rounds are re-covered by the restored
  // checkpoint, so the event fires at the first live Exchange after it,
  // exactly like an event whose scheduled round has already passed.
  std::int64_t CorruptDueMessage(std::vector<std::int64_t>* received) {
    if (!faults_enabled_ || fast_forward_remaining_ > 0) return 0;
    const int round = charged_rounds_ + 1;
    for (FaultEvent& e : plan_.events()) {
      if (e.fired || e.kind != FaultKind::kCorruption || e.round > round) {
        continue;
      }
      const size_t n = received->size();
      for (size_t i = 0; i < n; ++i) {
        const size_t victim = (static_cast<size_t>(e.server) + i) % n;
        std::int64_t& count = (*received)[victim];
        if (count <= 0) continue;
        const std::int64_t resent = count;
        count = CheckedAdd(count, resent);
        e.fired = true;
        stats_.retransmits += 1;
        Emit("retransmit", round,
             "corruption detected at round " + std::to_string(round) +
                 ": dest " + std::to_string(victim) + " corrupted (mask " +
                 std::to_string(e.corruption_mask) + "), retransmitted");
        return resent;
      }
      return 0;  // no traffic this round; the event fires later
    }
    return 0;
  }

  // The single round-accounting core. `physical` has size live_;
  // `retransmitted` is the part of it a corruption re-sent
  // (ChargeExchangeRound), booked as recovery traffic.
  void ApplyRound(const std::vector<std::int64_t>& physical, bool recovery,
                  std::int64_t retransmitted = 0) {
    RoundRecord record;
    record.recovery = recovery;
    for (std::int64_t r : physical) {
      record.max_load = std::max(record.max_load, r);
      record.tuples = CheckedAdd(record.tuples, r);
    }
    if (!recovery && fast_forward_remaining_ > 0) {
      // Resume fast-forward: this round is re-covered by the restored
      // interval checkpoint. It keeps its slot in the charged-round order
      // but contributes nothing to the ledger, fires no fault events, and
      // skips the budget check and checkpoint accumulation (BeginAttempt).
      --fast_forward_remaining_;
      algo_rounds_done_ += 1;
      record.resumed = true;
      BookRound(record, 0);
      return;
    }

    // Straggler: the slowest due delay factor stretches this round's
    // contribution to the critical path. Recovery rounds never straggle.
    // With an armed straggle threshold, a due factor at or above it is
    // re-balanced instead: the victim's pending round load ships evenly to
    // the other live servers in a charged re-balance round below, and this
    // round contributes the post-re-balance effective time rather than the
    // stretched one.
    const int round = charged_rounds_ + 1;
    std::vector<Rebalance> rebalances;
    if (faults_enabled_ && !recovery) {
      for (FaultEvent& e : plan_.events()) {
        if (e.fired || e.kind != FaultKind::kStraggler) continue;
        if (e.round > round) continue;
        e.fired = true;
        const int victim =
            e.server % static_cast<int>(physical.size());
        const bool active = straggle_threshold_ > 0 &&
                            e.factor >= straggle_threshold_ &&
                            physical.size() > 1;
        EventRecord payload;
        payload.server = victim;
        payload.factor = e.factor;
        Emit("straggler", round,
             "straggler at round " + std::to_string(round) + ": server " +
                 std::to_string(e.server) + " delayed x" +
                 std::to_string(e.factor) + (active ? ", re-balancing" : ""),
             payload);
        if (active) {
          Rebalance rb = PlanRebalance(victim, e.factor, physical);
          // A victim with no received tuples has nothing to ship — and
          // nothing to straggle on: its delay stretches no charged work.
          if (rb.moved > 0) rebalances.push_back(std::move(rb));
        } else {
          record.straggle_factor = std::max(record.straggle_factor, e.factor);
        }
      }
    }
    std::int64_t round_time = static_cast<std::int64_t>(std::llround(
        static_cast<double>(record.max_load) * record.straggle_factor));
    for (const Rebalance& rb : rebalances) {
      round_time = std::max(round_time, rb.effective);
    }
    BookRound(record, round_time);
    stats_.recovery_comm = CheckedAdd(stats_.recovery_comm, retransmitted);

    for (const Rebalance& rb : rebalances) {
      ChargeRebalanceRound(rb);
    }

    if (!recovery) {
      algo_rounds_done_ += 1;
      if (ckpt_interval_ > 0) {
        for (size_t s = 0; s < physical.size(); ++s) {
          since_ckpt_[s] = CheckedAdd(since_ckpt_[s], physical[s]);
        }
        if (++rounds_since_ckpt_ >= ckpt_interval_) {
          ChargeCheckpointReplication();
        }
      }
    }

    if (!recovery && load_budget_ > 0 && record.max_load > load_budget_) {
      RoundAbort abort;
      abort.reason = RoundAbort::Reason::kLoadBudget;
      abort.round = charged_rounds_;
      abort.round_load = record.max_load;
      abort.budget = load_budget_;
      Emit("budget_abort", charged_rounds_,
           "budget abort: " + abort.ToString());
      throw abort;
    }

    if (faults_enabled_ && !recovery && live_ > 1) {
      for (FaultEvent& e : plan_.events()) {
        if (e.fired || e.kind != FaultKind::kCrash) continue;
        if (e.round > charged_rounds_) continue;
        e.fired = true;
        stats_.crashes += 1;
        const int victim = e.server % live_;
        live_ -= 1;
        // Traffic accumulated toward the next checkpoint follows the same
        // v mod p re-hosting as the virtual servers themselves.
        since_ckpt_ = FoldToPhysical(since_ckpt_);
        RoundAbort abort;
        abort.reason = RoundAbort::Reason::kServerCrash;
        abort.round = charged_rounds_;
        abort.server = victim;
        abort.round_load = record.max_load;
        Emit("crash", charged_rounds_,
             "crash: " + abort.ToString() + ", " + std::to_string(live_) +
                 " servers remain");
        throw abort;
      }
    }
  }

  // Charges the rotated replication round directly (no recursion through
  // ApplyRound: replication cannot itself straggle, crash, or re-trigger a
  // checkpoint).
  void ChargeCheckpointReplication() {
    RoundRecord record;
    record.recovery = true;
    for (std::int64_t c : since_ckpt_) {
      record.max_load = std::max(record.max_load, c);
      record.tuples = CheckedAdd(record.tuples, c);
    }
    std::fill(since_ckpt_.begin(), since_ckpt_.end(), 0);
    rounds_since_ckpt_ = 0;
    // Everything up to and including this round is now replicated: a
    // resumed re-execution may fast-forward over these rounds.
    ckpt_covered_rounds_ = algo_rounds_done_;
    BookRound(record, record.max_load);
    if (observer_ != nullptr) {
      observer_->OnEvent("checkpoint", charged_rounds_,
                         "interval checkpoint replication, " +
                             std::to_string(record.tuples) + " tuple(s)");
    }
  }

  // Restarts per-attempt checkpoint progress, with the first `covered`
  // algorithm rounds counted as already replicated.
  void RestartCheckpointProgress(int covered) {
    rounds_since_ckpt_ = 0;
    since_ckpt_.assign(static_cast<size_t>(live_), 0);
    algo_rounds_done_ = 0;
    ckpt_covered_rounds_ = covered;
  }

  int live_;
  Rng rng_;
  Stats stats_;
  std::vector<Region> regions_;

  // Monotone count of charged rounds since ResetStats. Fault schedules key
  // off this, not stats_.rounds, which EndParallelRegion rewrites downward.
  int charged_rounds_ = 0;

  bool faults_enabled_ = false;
  FaultPlan plan_;
  std::vector<std::string> fault_log_;

  std::int64_t load_budget_ = 0;
  int ckpt_interval_ = 0;
  int rounds_since_ckpt_ = 0;
  std::vector<std::int64_t> since_ckpt_;

  // Fine-grained recovery state: non-recovery rounds completed this
  // attempt (elided ones included — they represent completed progress),
  // how many of them the latest replication covers, and how many rounds of
  // a resumed re-execution remain to fast-forward over.
  int algo_rounds_done_ = 0;
  int ckpt_covered_rounds_ = 0;
  int fast_forward_remaining_ = 0;

  double straggle_threshold_ = 0;

  RoundObserver* observer_ = nullptr;
};

// RAII scope label for trace attribution: primitives and the executor wrap
// their charged work in `TraceScope scope(cluster, "sort");` so the
// observer can attribute rounds. A no-op (one null check) when no observer
// is attached. The observer pointer is captured at construction: scopes
// are short-lived and observers are attached/detached between queries,
// never inside a primitive.
class TraceScope {
 public:
  TraceScope(Cluster& cluster, const char* name)
      : observer_(cluster.observer()) {
    if (observer_ != nullptr) observer_->PushScope(name);
  }
  ~TraceScope() {
    if (observer_ != nullptr) observer_->PopScope();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  RoundObserver* observer_;
};

// RAII guard for a parallel region; call NextBranch() before each branch.
// The only way to open a region, so regions balance by construction: a
// RoundAbort that unwinds through an algorithm closes each region on the
// way out.
class ParallelRegion {
 public:
  explicit ParallelRegion(Cluster& cluster) : cluster_(cluster) {
    cluster_.BeginParallelRegion();
  }
  ~ParallelRegion() { cluster_.EndParallelRegion(); }
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

  void NextBranch() { cluster_.BeginParallelBranch(); }

 private:
  Cluster& cluster_;
};

}  // namespace mpc
}  // namespace parjoin

#endif  // PARJOIN_MPC_CLUSTER_H_
