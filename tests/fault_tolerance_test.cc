// Fault-tolerance tests: deterministic fault schedules, checkpoint/replay
// recovery through plan::PlanAndRun, the load-budget guardrail, and the
// abort-safety of the round-accounting machinery.
//
// The headline property mirrors the determinism tentpole: with fault
// injection on, every tier-1 query shape recovers to an output
// bit-identical (after Normalize) to the fault-free run — at every thread
// count — and the recovery traffic shows up in the cost ledger instead of
// being silently free.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/algorithms/reference.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/mpc/checkpoint.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/mpc/dist.h"
#include "parjoin/mpc/exchange.h"
#include "parjoin/mpc/faults.h"
#include "parjoin/mpc/primitives.h"
#include "parjoin/plan/executor.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

// Restores the default thread count when a test exits.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetParallelForThreads(0); }
};

// The CI fault matrix varies these; local runs get fixed defaults.
std::uint64_t FaultSeed() {
  if (const char* env = std::getenv("PARJOIN_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 7;
}

int CheckpointInterval() {
  if (const char* env = std::getenv("PARJOIN_CHECKPOINT_INTERVAL")) {
    return static_cast<int>(std::strtol(env, nullptr, 10));
  }
  return 2;
}

bool ResumeFromCheckpoint() {
  if (const char* env = std::getenv("PARJOIN_RESUME")) {
    return std::strtol(env, nullptr, 10) != 0;
  }
  return false;
}

plan::ExecutionOptions FaultedOptions() {
  plan::ExecutionOptions options;
  options.faults.enabled = true;
  options.faults.seed = FaultSeed();
  options.checkpoint_interval = CheckpointInterval();
  options.resume_from_checkpoint = ResumeFromCheckpoint();
  return options;
}

// --- schedule determinism -----------------------------------------------------

TEST(FaultPlanTest, SameSeedSameSchedule) {
  mpc::FaultConfig config;
  config.seed = 42;
  const mpc::FaultPlan a = mpc::FaultPlan::Generate(config, 8);
  const mpc::FaultPlan b = mpc::FaultPlan::Generate(config, 8);
  ASSERT_EQ(a.events().size(), b.events().size());
  std::set<mpc::FaultKind> kinds;
  for (size_t i = 0; i < a.events().size(); ++i) {
    const mpc::FaultEvent& x = a.events()[i];
    const mpc::FaultEvent& y = b.events()[i];
    EXPECT_EQ(x.kind, y.kind) << "event " << i;
    EXPECT_EQ(x.round, y.round) << "event " << i;
    EXPECT_EQ(x.server, y.server) << "event " << i;
    EXPECT_EQ(x.factor, y.factor) << "event " << i;
    EXPECT_EQ(x.corruption_mask, y.corruption_mask) << "event " << i;
    kinds.insert(x.kind);
  }
  EXPECT_EQ(kinds.size(), 3u) << "every fault kind is scheduled";
}

TEST(FaultPlanTest, EventsRespectConfigCountsAndHorizon) {
  mpc::FaultConfig config;
  config.crashes = 2;
  config.stragglers = 3;
  config.corruptions = 1;
  config.horizon = 5;
  const mpc::FaultPlan plan = mpc::FaultPlan::Generate(config, 16);
  int crashes = 0, stragglers = 0, corruptions = 0;
  for (const mpc::FaultEvent& e : plan.events()) {
    EXPECT_GE(e.round, 1);
    EXPECT_LE(e.round, config.horizon);
    EXPECT_GE(e.server, 0);
    EXPECT_LT(e.server, 16);
    switch (e.kind) {
      case mpc::FaultKind::kCrash:
        ++crashes;
        break;
      case mpc::FaultKind::kStraggler:
        ++stragglers;
        EXPECT_GE(e.factor, config.straggle_min);
        EXPECT_LE(e.factor, config.straggle_max);
        break;
      case mpc::FaultKind::kCorruption:
        ++corruptions;
        EXPECT_NE(e.corruption_mask, 0u);
        break;
    }
  }
  EXPECT_EQ(crashes, 2);
  EXPECT_EQ(stragglers, 3);
  EXPECT_EQ(corruptions, 1);
}

// --- recovery to bit-identical outputs ----------------------------------------

// Runs `make_instance` fault-free and under the full fault schedule (crash
// + straggler + corruption) and requires identical normalized outputs,
// with every fault visibly priced into the ledger.
template <typename MakeInstance>
void ExpectRecoversIdentically(const MakeInstance& make_instance,
                               int p, const char* what) {
  Relation<S> baseline;
  plan::Algorithm chosen = plan::Algorithm::kYannakakis;
  {
    mpc::Cluster cluster(p);
    auto exec = plan::PlanAndRun(cluster, make_instance(cluster));
    baseline = exec.result.ToLocal();
    baseline.Normalize();
    chosen = exec.plan.chosen;
    EXPECT_EQ(exec.plan.execution_stats.recovery_comm, 0) << what;
    EXPECT_EQ(exec.plan.recovery.attempts, 1) << what;
  }

  mpc::Cluster cluster(p);
  auto instance = make_instance(cluster);
  auto exec = plan::PlanAndRun(cluster, std::move(instance),
                               plan::PlannerOptions{}, FaultedOptions());
  Relation<S> got = exec.result.ToLocal();
  got.Normalize();

  EXPECT_TRUE(got == baseline)
      << what << ": got " << got.size() << " tuples, expected "
      << baseline.size() << "\n"
      << exec.plan.ToText();
  // Planning is fault-free, so the choice must match the baseline run.
  EXPECT_EQ(exec.plan.chosen, chosen) << what;

  const auto& stats = exec.plan.execution_stats;
  const auto& recovery = exec.plan.recovery;
  EXPECT_GE(stats.crashes, 1) << what;
  EXPECT_GE(recovery.attempts, 2) << what;
  EXPECT_EQ(cluster.p(), p - stats.crashes) << what;
  EXPECT_GE(stats.retransmits, 1) << what;
  EXPECT_GT(stats.recovery_comm, 0) << what;
  EXPECT_GE(stats.critical_path, stats.max_load) << what;
  bool straggled = false;
  for (const std::string& event : recovery.events) {
    if (event.find("straggler") != std::string::npos) straggled = true;
  }
  EXPECT_TRUE(straggled) << what << ": no straggler event fired\n"
                         << exec.plan.ToText();
}

TEST(FaultRecoveryTest, MatMulRecoversBitIdentical) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectRecoversIdentically(
        [](const mpc::Cluster& cluster) {
          return GenMatMulBlocks<S>(
              cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
        },
        /*p=*/8, "matmul");
  }
}

TEST(FaultRecoveryTest, LineRecoversBitIdentical) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectRecoversIdentically(
        [](const mpc::Cluster& cluster) {
          LineBlockConfig cfg;
          cfg.arity = 3;
          cfg.blocks = 4;
          cfg.side_end = 4;
          cfg.side_mid = 12;
          return GenLineBlocks<S>(cluster, cfg);
        },
        /*p=*/8, "line");
  }
}

TEST(FaultRecoveryTest, StarRecoversBitIdentical) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectRecoversIdentically(
        [](const mpc::Cluster& cluster) {
          StarBlockConfig cfg;
          return GenStarBlocks<S>(cluster, cfg);
        },
        /*p=*/8, "star");
  }
}

TEST(FaultRecoveryTest, TreeRecoversBitIdentical) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectRecoversIdentically(
        [](const mpc::Cluster& cluster) {
          JoinTree query({{0, 1}, {1, 2}, {2, 3}, {2, 4}}, {0, 3, 4});
          return GenTreeRandom<S>(cluster, std::move(query),
                                  /*tuples_per_relation=*/600, /*dom=*/30,
                                  /*seed=*/5);
        },
        /*p=*/8, "tree");
  }
}

TEST(FaultRecoveryTest, SameSeedsReproduceTheRunExactly) {
  auto run = [] {
    mpc::Cluster cluster(8);
    auto instance = GenMatMulBlocks<S>(
        cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
    auto exec = plan::PlanAndRun(cluster, std::move(instance),
                                 plan::PlannerOptions{}, FaultedOptions());
    Relation<S> out = exec.result.ToLocal();
    out.Normalize();
    return std::make_pair(std::move(out), exec.plan.execution_stats);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_TRUE(a.first == b.first);
  EXPECT_EQ(a.second.rounds, b.second.rounds);
  EXPECT_EQ(a.second.max_load, b.second.max_load);
  EXPECT_EQ(a.second.total_comm, b.second.total_comm);
  EXPECT_EQ(a.second.critical_path, b.second.critical_path);
  EXPECT_EQ(a.second.recovery_comm, b.second.recovery_comm);
  EXPECT_EQ(a.second.retransmits, b.second.retransmits);
  EXPECT_EQ(a.second.crashes, b.second.crashes);
}

// --- corruption repair in isolation -------------------------------------------

using KV = std::pair<std::int64_t, std::int64_t>;

// Routes an item to the virtual destination its key names.
int DestOf(const KV& kv) { return static_cast<int>(kv.first); }

// `count` items bound for virtual destination `dest`.
void AddItems(std::vector<KV>* items, int dest, int count) {
  for (int i = 0; i < count; ++i) items->emplace_back(dest, i);
}

// The one corruption event a corruption-only schedule holds, due at round 1.
mpc::FaultConfig CorruptionOnly() {
  mpc::FaultConfig config;
  config.crashes = 0;
  config.stragglers = 0;
  config.corruptions = 1;
  config.horizon = 1;
  return config;
}

std::string RetransmitLine(int round, int dest, std::uint64_t mask) {
  return "corruption detected at round " + std::to_string(round) +
         ": dest " + std::to_string(dest) + " corrupted (mask " +
         std::to_string(mask) + "), retransmitted";
}

TEST(FaultCorruptionTest, RetransmissionRepairsWithoutChangingOutput) {
  const int p = 4;
  const int num_dest = 8;  // virtual destinations 4..7 fold onto 0..3
  const mpc::FaultConfig config = CorruptionOnly();
  const mpc::FaultEvent event = mpc::FaultPlan::Generate(config, p).events()[0];
  ASSERT_EQ(event.kind, mpc::FaultKind::kCorruption);
  ASSERT_EQ(event.round, 1);
  // Scanning from the event's server, destinations s..s+2 are empty, so the
  // victim is s+3 (mod 8); s+6 carries traffic too but comes later.
  const int victim = (event.server + 3) % num_dest;
  const int other = (event.server + 6) % num_dest;
  std::vector<KV> items;
  AddItems(&items, victim, 10);
  AddItems(&items, other, 15);

  mpc::Cluster clean(p);
  const auto clean_parts =
      mpc::Exchange(clean, mpc::ScatterEvenly(items, p), num_dest, DestOf)
          .parts();

  mpc::Cluster faulty(p);
  faulty.EnableFaults(config);
  const auto faulty_parts =
      mpc::Exchange(faulty, mpc::ScatterEvenly(items, p), num_dest, DestOf)
          .parts();

  EXPECT_EQ(clean_parts, faulty_parts);
  const mpc::Cluster::Stats& stats = faulty.stats();
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(stats.retransmits, 1);
  // The victim's 10 tuples arrive twice; the copy is recovery traffic.
  EXPECT_EQ(stats.recovery_comm, 10);
  EXPECT_EQ(stats.total_comm, clean.stats().total_comm + 10);
  EXPECT_EQ(stats.max_load, 20);
  EXPECT_EQ(stats.critical_path, 20);
  ASSERT_EQ(faulty.fault_log().size(), 1u);
  EXPECT_EQ(faulty.fault_log()[0],
            RetransmitLine(1, victim, event.corruption_mask));
}

// 5 + d items bound for each destination d < p.
std::vector<KV> ItemsForEveryServer(int p) {
  std::vector<KV> items;
  for (int d = 0; d < p; ++d) AddItems(&items, d, 5 + d);
  return items;
}

TEST(FaultCorruptionTest, PendingCorruptionWaitsForTheNextExchange) {
  const int p = 4;
  const mpc::FaultConfig config = CorruptionOnly();
  const mpc::FaultEvent event = mpc::FaultPlan::Generate(config, p).events()[0];
  const std::vector<KV> items = ItemsForEveryServer(p);

  mpc::Cluster cluster(p);
  cluster.EnableFaults(config);
  // None of these rounds is an Exchange, and the empty Exchange delivers
  // nothing to corrupt: the due event stays pending through all of them.
  cluster.ChargeUniformRound(3);
  mpc::Broadcast(cluster, mpc::ScatterEvenly(items, p));
  mpc::Sort(cluster, mpc::ScatterEvenly(items, p), std::less<KV>());
  mpc::Exchange(cluster, mpc::Dist<KV>(p), p, DestOf);
  EXPECT_EQ(cluster.stats().retransmits, 0);
  EXPECT_EQ(cluster.stats().recovery_comm, 0);
  EXPECT_TRUE(cluster.fault_log().empty());

  const mpc::Cluster::Stats before = cluster.stats();
  mpc::Exchange(cluster, mpc::ScatterEvenly(items, p), p, DestOf);
  const mpc::Cluster::Stats& stats = cluster.stats();
  const std::int64_t victim_load = 5 + event.server;
  EXPECT_EQ(stats.rounds, 5);
  EXPECT_EQ(stats.retransmits, 1);
  EXPECT_EQ(stats.recovery_comm, victim_load);
  EXPECT_EQ(stats.total_comm - before.total_comm,
            static_cast<std::int64_t>(items.size()) + victim_load);
  ASSERT_EQ(cluster.fault_log().size(), 1u);
  EXPECT_EQ(cluster.fault_log()[0],
            RetransmitLine(5, event.server, event.corruption_mask));
}

TEST(FaultCorruptionTest, NoCorruptionInsideAResumeWindow) {
  const int p = 4;
  const mpc::FaultConfig config = CorruptionOnly();
  const mpc::FaultEvent event = mpc::FaultPlan::Generate(config, p).events()[0];
  const std::vector<KV> items = ItemsForEveryServer(p);

  mpc::Cluster cluster(p);
  cluster.EnableFaults(config);
  cluster.BeginAttempt(2);
  mpc::Exchange(cluster, mpc::ScatterEvenly(items, p), p, DestOf);  // elided
  mpc::Exchange(cluster, mpc::ScatterEvenly(items, p), p, DestOf);  // elided
  EXPECT_EQ(cluster.stats().resumed_rounds, 2);
  EXPECT_EQ(cluster.stats().retransmits, 0);
  EXPECT_EQ(cluster.stats().total_comm, 0);
  ASSERT_EQ(cluster.fault_log().size(), 1u);  // the resume line only

  mpc::Exchange(cluster, mpc::ScatterEvenly(items, p), p, DestOf);
  EXPECT_EQ(cluster.stats().rounds, 1);
  EXPECT_EQ(cluster.stats().retransmits, 1);
  EXPECT_EQ(cluster.stats().recovery_comm, 5 + event.server);
  ASSERT_EQ(cluster.fault_log().size(), 2u);
  EXPECT_EQ(cluster.fault_log()[1],
            RetransmitLine(3, event.server, event.corruption_mask));
}

// --- stragglers and the critical path -----------------------------------------

TEST(FaultStragglerTest, CriticalPathStretchesByTheDelayFactor) {
  mpc::Cluster cluster(4);
  mpc::FaultConfig config;
  config.crashes = 0;
  config.corruptions = 0;
  config.stragglers = 1;
  config.straggle_min = 3.0;
  config.straggle_max = 3.0;
  config.horizon = 1;
  cluster.EnableFaults(config);
  cluster.ChargeUniformRound(10);  // straggled: contributes 30
  cluster.ChargeUniformRound(10);  // normal: contributes 10
  EXPECT_EQ(cluster.stats().max_load, 10);
  EXPECT_EQ(cluster.stats().critical_path, 40);
  ASSERT_EQ(cluster.fault_log().size(), 1u);
  EXPECT_NE(cluster.fault_log()[0].find("straggler"), std::string::npos);
}

TEST(FaultStragglerTest, FaultFreeCriticalPathIsSumOfRoundMaxima) {
  mpc::Cluster cluster(3);
  cluster.ChargeRound({5, 9, 2});
  cluster.ChargeRound({1, 1, 7});
  EXPECT_EQ(cluster.stats().critical_path, 16);
  EXPECT_EQ(cluster.stats().max_load, 9);
}

// --- checkpoint replication & restore -----------------------------------------

TEST(CheckpointTest, ReplicationRoundsAreChargedAsRecovery) {
  mpc::Cluster cluster(2);
  cluster.SetCheckpointInterval(2);
  cluster.ChargeRound({5, 7});
  EXPECT_EQ(cluster.stats().rounds, 1);
  cluster.ChargeRound({5, 7});
  // The second charged round completed the interval: one replication round
  // copying everything since the last checkpoint (10 and 14 tuples).
  EXPECT_EQ(cluster.stats().rounds, 3);
  EXPECT_EQ(cluster.stats().max_load, 14);
  EXPECT_EQ(cluster.stats().recovery_comm, 24);
  EXPECT_EQ(cluster.stats().total_comm, 12 + 12 + 24);
  EXPECT_EQ(cluster.stats().critical_path, 7 + 7 + 14);
}

TEST(CheckpointTest, SnapshotAndRestoreRehostOntoLiveServers) {
  mpc::Cluster cluster(7);
  std::vector<std::vector<int>> parts(8);
  for (int v = 0; v < 8; ++v) parts[static_cast<size_t>(v)] = {v, v, v};
  mpc::Dist<int> d(std::move(parts));

  const mpc::DistSnapshot<int> snap = mpc::CheckpointDist(cluster, d);
  EXPECT_EQ(cluster.stats().recovery_comm, 24);  // 8 parts x 3 tuples
  EXPECT_EQ(cluster.stats().rounds, 1);

  const mpc::Dist<int> restored = mpc::RestoreDist(cluster, snap);
  EXPECT_EQ(restored.num_parts(), 7);
  EXPECT_EQ(cluster.stats().recovery_comm, 48);
  // Snapshot partition 7 lands on server 7 mod 7 = 0 alongside partition 0.
  EXPECT_EQ(restored.part(0), (std::vector<int>{0, 0, 0, 7, 7, 7}));
  EXPECT_EQ(restored.part(1), (std::vector<int>{1, 1, 1}));
}

TEST(CheckpointTest, SinglePartitionSnapshotIsUnrecoverableAndFree) {
  // (v+1) mod 1 is v itself: with one partition there is no neighbor to
  // hold the backup, so the snapshot is marked unrecoverable and no
  // useless self-copy is charged.
  mpc::Cluster cluster(1);
  mpc::Dist<int> d(std::vector<std::vector<int>>{{1, 2, 3}});
  const mpc::DistSnapshot<int> snap = mpc::CheckpointDist(cluster, d);
  EXPECT_FALSE(snap.recoverable);
  ASSERT_EQ(snap.parts.size(), 1u);
  EXPECT_EQ(snap.parts[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(cluster.stats().rounds, 0);
  EXPECT_EQ(cluster.stats().recovery_comm, 0);
  EXPECT_EQ(cluster.stats().total_comm, 0);
}

TEST(CheckpointDeathTest, RestoringUnrecoverableSnapshotDies) {
  mpc::Cluster cluster(1);
  const mpc::DistSnapshot<int> snap = mpc::CheckpointDist(
      cluster, mpc::Dist<int>(std::vector<std::vector<int>>{{4, 5}}));
  EXPECT_DEATH(mpc::RestoreDist(cluster, snap),
               "single-partition snapshot");
}

TEST(FaultRecoveryTest, SingleServerClusterNeverCrashes) {
  // Crash-at-p=1 regression: the cluster never fells its last live
  // server, so an armed crash schedule must not fire, shrink p, or
  // abort any round.
  mpc::Cluster cluster(1);
  mpc::FaultConfig config;
  config.seed = FaultSeed();
  config.crashes = 3;
  config.stragglers = 0;
  config.corruptions = 0;
  config.horizon = 4;
  cluster.EnableFaults(config);
  for (int r = 0; r < 6; ++r) cluster.ChargeUniformRound(5);
  EXPECT_EQ(cluster.p(), 1);
  EXPECT_EQ(cluster.stats().crashes, 0);
  EXPECT_EQ(cluster.stats().rounds, 6);
}

TEST(FaultRecoveryTest, SingleServerPlanAndRunCompletesWithFaultsArmed) {
  // End-to-end p=1: the executor's checkpoint is unrecoverable (and free
  // of charge), and execution completes because crashes cannot fire.
  mpc::Cluster cluster(1);
  auto instance = GenMatMulBlocks<S>(
      cluster, MatMulBlockConfig::FromTargets(500, 128, 2));
  Relation<S> expected = EvaluateReference(instance);
  auto exec = plan::PlanAndRun(cluster, std::move(instance),
                               plan::PlannerOptions{}, FaultedOptions());
  Relation<S> got = exec.result.ToLocal();
  got.Normalize();
  EXPECT_TRUE(got == expected)
      << "got " << got.size() << " expected " << expected.size();
  EXPECT_EQ(cluster.p(), 1);
  EXPECT_EQ(exec.plan.execution_stats.crashes, 0);
  EXPECT_EQ(exec.plan.recovery.attempts, 1);
}

// --- load-budget guardrail ----------------------------------------------------

TEST(LoadBudgetTest, ExceededBudgetDegradesOntoYannakakis) {
  mpc::Cluster cluster(8);
  auto instance = GenMatMulBlocks<S>(
      cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
  Relation<S> expected = EvaluateReference(instance);

  cluster.ResetStats();
  plan::PhysicalPlan plan = plan::PlanQuery(cluster, instance);
  ASSERT_NE(plan.shape, QueryShape::kSingleEdge);
  plan.chosen = plan::Algorithm::kMatMulWorstCase;
  plan.predicted_load = 1;  // guaranteed mispredicted

  plan::ExecutionOptions options;
  options.load_budget_factor = 1.0;
  cluster.ResetStats();
  auto result = plan::TryExecuteWithRecovery(cluster, std::move(instance),
                                             options, &plan);
  ASSERT_TRUE(result.ok()) << result.status();
  Relation<S> got = result->ToLocal();
  got.Normalize();

  EXPECT_TRUE(plan.recovery.degraded_to_baseline) << plan.ToText();
  EXPECT_EQ(plan.recovery.budget_aborts, 1);
  EXPECT_EQ(plan.executed, plan::Algorithm::kYannakakis);
  EXPECT_EQ(plan.execution_stats.crashes, 0);
  EXPECT_TRUE(got == expected)
      << "got " << got.size() << " expected " << expected.size();
}

TEST(LoadBudgetTest, GenerousBudgetNeverFires) {
  mpc::Cluster cluster(8);
  auto instance = GenMatMulBlocks<S>(
      cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
  plan::ExecutionOptions options;
  options.load_budget_factor = 1e9;
  auto exec = plan::PlanAndRun(cluster, std::move(instance),
                               plan::PlannerOptions{}, options);
  EXPECT_EQ(exec.plan.recovery.budget_aborts, 0);
  EXPECT_FALSE(exec.plan.recovery.degraded_to_baseline);
  EXPECT_EQ(exec.plan.executed, exec.plan.chosen);
}

// --- mid-run checkpoint resume ------------------------------------------------

TEST(ResumeTest, CheckpointedRoundsTrackTheLatestReplication) {
  mpc::Cluster cluster(2);
  cluster.SetCheckpointInterval(2);
  EXPECT_EQ(cluster.checkpointed_rounds(), 0);
  cluster.ChargeRound({5, 7});
  EXPECT_EQ(cluster.checkpointed_rounds(), 0);  // interval not complete
  cluster.ChargeRound({5, 7});
  EXPECT_EQ(cluster.checkpointed_rounds(), 2);  // replication fired
  cluster.ChargeRound({5, 7});
  EXPECT_EQ(cluster.checkpointed_rounds(), 2);  // round 3 not yet covered
  cluster.ChargeRound({5, 7});
  EXPECT_EQ(cluster.checkpointed_rounds(), 4);
}

TEST(ResumeTest, BeginAttemptFastForwardElidesCharges) {
  mpc::Cluster cluster(2);
  cluster.SetCheckpointInterval(2);
  cluster.ChargeRound({5, 7});
  cluster.ChargeRound({5, 7});
  ASSERT_EQ(cluster.checkpointed_rounds(), 2);
  const mpc::Cluster::Stats before = cluster.stats();

  cluster.BeginAttempt(2);
  EXPECT_EQ(cluster.stats().resumes, 1);
  cluster.ChargeRound({5, 7});  // elided
  cluster.ChargeRound({5, 7});  // elided
  // The fast-forward window charged nothing to the ledger.
  EXPECT_EQ(cluster.stats().rounds, before.rounds);
  EXPECT_EQ(cluster.stats().max_load, before.max_load);
  EXPECT_EQ(cluster.stats().total_comm, before.total_comm);
  EXPECT_EQ(cluster.stats().critical_path, before.critical_path);
  EXPECT_EQ(cluster.stats().recovery_comm, before.recovery_comm);
  EXPECT_EQ(cluster.stats().resumed_rounds, 2);
  // A second pre-replication crash would resume from the same point.
  EXPECT_EQ(cluster.checkpointed_rounds(), 2);

  // The first live round past the window charges normally and restarts
  // interval accounting from the window's end.
  cluster.ChargeRound({3, 4});
  EXPECT_EQ(cluster.stats().rounds, before.rounds + 1);
  EXPECT_EQ(cluster.stats().total_comm, before.total_comm + 7);
  EXPECT_EQ(cluster.checkpointed_rounds(), 2);
  cluster.ChargeRound({3, 4});
  EXPECT_EQ(cluster.checkpointed_rounds(), 4);
}

TEST(ResumeTest, BudgetAndFaultsDoNotFireInsideTheWindow) {
  mpc::Cluster cluster(3);
  cluster.SetCheckpointInterval(2);
  cluster.ChargeRound({5, 5, 5});
  cluster.ChargeRound({5, 5, 5});
  ASSERT_EQ(cluster.checkpointed_rounds(), 2);
  cluster.SetLoadBudget(1);
  cluster.BeginAttempt(2);
  // Both rounds exceed the budget but are elided: no abort.
  cluster.ChargeRound({5, 5, 5});
  cluster.ChargeRound({5, 5, 5});
  cluster.SetLoadBudget(0);
  EXPECT_EQ(cluster.stats().resumed_rounds, 2);
}

// Runs `make_instance` under a crashes-only schedule pinned past the first
// checkpoint interval and requires: the resumed run's output is identical
// to both the fault-free baseline and the input-replay recovery, while
// replaying strictly fewer rounds and charging strictly less recovery
// communication than input-replay.
template <typename MakeInstance>
void ExpectResumeSavesReplayedRounds(const MakeInstance& make_instance,
                                     int p, const char* what) {
  Relation<S> baseline;
  {
    mpc::Cluster cluster(p);
    auto exec = plan::PlanAndRun(cluster, make_instance(cluster));
    baseline = exec.result.ToLocal();
    baseline.Normalize();
  }

  auto faulted = [&](bool resume) {
    plan::ExecutionOptions options;
    options.faults.enabled = true;
    options.faults.seed = FaultSeed();
    options.faults.crashes = 1;
    options.faults.stragglers = 0;
    options.faults.corruptions = 0;
    // Pin the crash past the first interval checkpoint: input snapshots
    // plus at least two algorithm rounds have been charged by round 6 for
    // every tier-1 shape, so a replication round precedes the crash.
    options.faults.crash_rounds = {6};
    options.checkpoint_interval = 2;
    options.resume_from_checkpoint = resume;
    mpc::Cluster cluster(p);
    auto exec = plan::PlanAndRun(cluster, make_instance(cluster),
                                 plan::PlannerOptions{}, options);
    Relation<S> out = exec.result.ToLocal();
    out.Normalize();
    return std::make_pair(std::move(out), exec.plan);
  };

  const auto [replay_out, replay_plan] = faulted(/*resume=*/false);
  const auto [resume_out, resume_plan] = faulted(/*resume=*/true);

  ASSERT_EQ(replay_plan.execution_stats.crashes, 1) << what;
  ASSERT_EQ(resume_plan.execution_stats.crashes, 1) << what;
  EXPECT_EQ(replay_plan.execution_stats.resumes, 0) << what;
  EXPECT_EQ(resume_plan.execution_stats.resumes, 1) << what;
  EXPECT_GE(resume_plan.execution_stats.resumed_rounds, 2) << what;

  EXPECT_TRUE(resume_out == baseline)
      << what << ": resumed output diverged from fault-free baseline\n"
      << resume_plan.ToText();
  EXPECT_TRUE(resume_out == replay_out)
      << what << ": resumed output diverged from input-replay recovery\n"
      << resume_plan.ToText();

  const auto& replayed = replay_plan.execution_stats;
  const auto& resumed = resume_plan.execution_stats;
  EXPECT_LT(resumed.rounds, replayed.rounds) << what;
  EXPECT_LT(resumed.recovery_comm, replayed.recovery_comm) << what;
}

TEST(ResumeRecoveryTest, MatMulResumeSavesReplayedRounds) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectResumeSavesReplayedRounds(
        [](const mpc::Cluster& cluster) {
          return GenMatMulBlocks<S>(
              cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
        },
        /*p=*/8, "matmul");
  }
}

TEST(ResumeRecoveryTest, LineResumeSavesReplayedRounds) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectResumeSavesReplayedRounds(
        [](const mpc::Cluster& cluster) {
          LineBlockConfig cfg;
          cfg.arity = 3;
          cfg.blocks = 4;
          cfg.side_end = 4;
          cfg.side_mid = 12;
          return GenLineBlocks<S>(cluster, cfg);
        },
        /*p=*/8, "line");
  }
}

TEST(ResumeRecoveryTest, StarResumeSavesReplayedRounds) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectResumeSavesReplayedRounds(
        [](const mpc::Cluster& cluster) {
          StarBlockConfig cfg;
          return GenStarBlocks<S>(cluster, cfg);
        },
        /*p=*/8, "star");
  }
}

TEST(ResumeRecoveryTest, TreeResumeSavesReplayedRounds) {
  ThreadOverrideGuard guard;
  for (int threads : {1, 4}) {
    SetParallelForThreads(threads);
    ExpectResumeSavesReplayedRounds(
        [](const mpc::Cluster& cluster) {
          JoinTree query({{0, 1}, {1, 2}, {2, 3}, {2, 4}}, {0, 3, 4});
          return GenTreeRandom<S>(cluster, std::move(query),
                                  /*tuples_per_relation=*/600, /*dom=*/30,
                                  /*seed=*/5);
        },
        /*p=*/8, "tree");
  }
}

TEST(ResumeRecoveryTest, CrashDuringResumedRunResumesAgain) {
  // Double failure: the second crash lands on the already-resumed attempt,
  // which must itself resume and still produce the fault-free output.
  Relation<S> baseline;
  {
    mpc::Cluster cluster(8);
    auto exec = plan::PlanAndRun(
        cluster, GenMatMulBlocks<S>(
                     cluster, MatMulBlockConfig::FromTargets(2000, 512, 4)));
    baseline = exec.result.ToLocal();
    baseline.Normalize();
  }

  plan::ExecutionOptions options;
  options.faults.enabled = true;
  options.faults.seed = FaultSeed();
  options.faults.crashes = 2;
  options.faults.stragglers = 0;
  options.faults.corruptions = 0;
  options.faults.crash_rounds = {6, 11};
  options.checkpoint_interval = 2;
  options.resume_from_checkpoint = true;
  mpc::Cluster cluster(8);
  auto instance = GenMatMulBlocks<S>(
      cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
  auto exec = plan::PlanAndRun(cluster, std::move(instance),
                               plan::PlannerOptions{}, options);
  Relation<S> got = exec.result.ToLocal();
  got.Normalize();

  EXPECT_TRUE(got == baseline) << exec.plan.ToText();
  EXPECT_EQ(exec.plan.execution_stats.crashes, 2);
  EXPECT_EQ(exec.plan.recovery.attempts, 3);
  EXPECT_EQ(exec.plan.execution_stats.resumes, 2);
  EXPECT_GE(exec.plan.execution_stats.resumed_rounds, 4);
  EXPECT_EQ(cluster.p(), 6);
}

// --- straggler re-balancing ---------------------------------------------------

TEST(StragglerRebalanceTest, ThresholdShipsLoadAndBoundsCriticalPath) {
  mpc::FaultConfig config;
  config.crashes = 0;
  config.corruptions = 0;
  config.stragglers = 1;
  config.straggle_min = 6.0;
  config.straggle_max = 6.0;
  config.horizon = 1;

  // Passive: the factor stretches the round (10 x 6 = 60).
  mpc::Cluster passive(4);
  passive.EnableFaults(config);
  passive.ChargeRound({10, 10, 10, 10});
  EXPECT_EQ(passive.stats().critical_path, 60);
  EXPECT_EQ(passive.stats().rebalances, 0);

  // Active: the victim's 10 tuples ship onto the three other servers
  // (shares 4+3+3), the straggled round contributes the post-re-balance
  // effective time max(10 + 4) = 14, and the re-balance round itself adds
  // its ship maximum of 4.
  mpc::Cluster active(4);
  active.EnableFaults(config);
  active.SetStraggleThreshold(4.0);
  active.ChargeRound({10, 10, 10, 10});
  EXPECT_EQ(active.stats().rebalances, 1);
  EXPECT_EQ(active.stats().rebalance_comm, 10);
  EXPECT_EQ(active.stats().critical_path, 14 + 4);
  EXPECT_EQ(active.stats().recovery_comm, 10);
  EXPECT_EQ(active.stats().rounds, 2);  // straggled round + re-balance
  EXPECT_LT(active.stats().critical_path, passive.stats().critical_path);
  bool logged = false;
  for (const std::string& e : active.fault_log()) {
    if (e.find("rebalance") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST(StragglerRebalanceTest, UnequalLoadsSplitRemainderInServerOrder) {
  mpc::FaultConfig config;
  config.crashes = 0;
  config.corruptions = 0;
  config.stragglers = 1;
  config.straggle_min = 6.0;
  config.straggle_max = 6.0;
  config.horizon = 1;
  mpc::Cluster cluster(4);
  cluster.EnableFaults(config);
  cluster.SetStraggleThreshold(4.0);
  const std::vector<std::int64_t> loads = {4, 5, 8, 10};
  cluster.ChargeRound(loads);

  // The schedule picks the victim; the log names it.
  ASSERT_EQ(cluster.fault_log().size(), 2u);
  int victim = -1;
  ASSERT_EQ(std::sscanf(cluster.fault_log()[0].c_str(),
                        "straggler at round 1: server %d", &victim),
            1)
      << cluster.fault_log()[0];
  ASSERT_GE(victim, 0);
  ASSERT_LT(victim, 4);
  // No load divides evenly by the three survivors, and the remainder goes
  // one tuple each to the lowest-numbered survivors. The straggled round
  // costs max(load + share) over the survivors, the re-balance round its
  // largest share:
  //   victim 0 ships 4 = 2+1+1:  max(5+2, 8+1, 10+1) = 11, plus 2
  //   victim 1 ships 5 = 2+2+1:  max(4+2, 8+2, 10+1) = 11, plus 2
  //   victim 2 ships 8 = 3+3+2:  max(4+3, 5+3, 10+2) = 12, plus 3
  //   victim 3 ships 10 = 4+3+3: max(4+4, 5+3, 8+3)  = 11, plus 4
  // Handing the remainder to the highest-numbered survivors instead would
  // change every one of these sums.
  const std::int64_t critical_path[] = {11 + 2, 11 + 2, 12 + 3, 11 + 4};
  EXPECT_EQ(cluster.stats().critical_path, critical_path[victim]);
  EXPECT_EQ(cluster.stats().max_load, 10);
  EXPECT_EQ(cluster.stats().rebalance_comm, loads[victim]);
  EXPECT_EQ(cluster.stats().rounds, 2);
}

TEST(StragglerRebalanceTest, BelowThresholdStaysPassive) {
  mpc::FaultConfig config;
  config.crashes = 0;
  config.corruptions = 0;
  config.stragglers = 1;
  config.straggle_min = 3.0;
  config.straggle_max = 3.0;
  config.horizon = 1;
  mpc::Cluster cluster(4);
  cluster.EnableFaults(config);
  cluster.SetStraggleThreshold(4.0);  // factor 3 stays below it
  cluster.ChargeRound({10, 10, 10, 10});
  EXPECT_EQ(cluster.stats().rebalances, 0);
  EXPECT_EQ(cluster.stats().critical_path, 30);
}

TEST(StragglerRebalanceTest, EndToEndRebalancePreservesOutput) {
  Relation<S> baseline;
  {
    mpc::Cluster cluster(8);
    auto exec = plan::PlanAndRun(
        cluster, GenMatMulBlocks<S>(
                     cluster, MatMulBlockConfig::FromTargets(2000, 512, 4)));
    baseline = exec.result.ToLocal();
    baseline.Normalize();
  }

  auto faulted = [&](double threshold) {
    plan::ExecutionOptions options;
    options.faults.enabled = true;
    options.faults.seed = FaultSeed();
    options.faults.crashes = 0;
    options.faults.corruptions = 0;
    options.faults.stragglers = 2;
    options.faults.straggle_min = 6.0;
    options.faults.straggle_max = 6.0;
    options.straggle_threshold = threshold;
    mpc::Cluster cluster(8);
    auto instance = GenMatMulBlocks<S>(
        cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
    auto exec = plan::PlanAndRun(cluster, std::move(instance),
                                 plan::PlannerOptions{}, options);
    Relation<S> out = exec.result.ToLocal();
    out.Normalize();
    return std::make_pair(std::move(out), exec.plan);
  };

  const auto [passive_out, passive_plan] = faulted(/*threshold=*/0);
  const auto [active_out, active_plan] = faulted(/*threshold=*/4.0);

  EXPECT_EQ(passive_plan.execution_stats.rebalances, 0);
  EXPECT_GE(active_plan.execution_stats.rebalances, 1);
  EXPECT_GT(active_plan.execution_stats.rebalance_comm, 0);
  // Re-balancing only redistributes accounting, never data: both faulted
  // runs must still match the fault-free baseline bit-for-bit.
  EXPECT_TRUE(passive_out == baseline);
  EXPECT_TRUE(active_out == baseline) << active_plan.ToText();
  // Shipping the straggler's load bounds the critical-path growth below
  // the passive stretch.
  EXPECT_LT(active_plan.execution_stats.critical_path,
            passive_plan.execution_stats.critical_path)
      << active_plan.ToText();
}

// --- abort-time re-planning ---------------------------------------------------

TEST(ReplanTest, BudgetAbortReplansInsteadOfDegrading) {
  mpc::Cluster cluster(8);
  auto instance = GenMatMulBlocks<S>(
      cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
  Relation<S> expected = EvaluateReference(instance);

  cluster.ResetStats();
  plan::PhysicalPlan plan = plan::PlanQuery(cluster, instance);
  ASSERT_NE(plan.shape, QueryShape::kSingleEdge);
  ASSERT_GE(plan.candidates.size(), 2u);
  plan.chosen = plan::Algorithm::kMatMulWorstCase;
  plan.predicted_load = 1;  // guaranteed mispredicted

  plan::ExecutionOptions options;
  options.load_budget_factor = 4.0;
  options.replan_on_budget_abort = true;
  cluster.ResetStats();
  auto result = plan::TryExecuteWithRecovery(cluster, std::move(instance),
                                             options, &plan);
  ASSERT_TRUE(result.ok()) << result.status();
  Relation<S> got = result->ToLocal();
  got.Normalize();

  EXPECT_GE(plan.recovery.replans, 1) << plan.ToText();
  EXPECT_GE(plan.recovery.budget_aborts, 1);
  EXPECT_FALSE(plan.recovery.degraded_to_baseline) << plan.ToText();
  EXPECT_NE(plan.executed, plan::Algorithm::kMatMulWorstCase);
  EXPECT_TRUE(got == expected)
      << "got " << got.size() << " expected " << expected.size();
}

TEST(ReplanTest, ReplanOffKeepsTheDegradePath) {
  // The default (replan off) must preserve the established behavior:
  // one budget abort, degrade onto Yannakakis, zero re-plans.
  mpc::Cluster cluster(8);
  auto instance = GenMatMulBlocks<S>(
      cluster, MatMulBlockConfig::FromTargets(2000, 512, 4));
  cluster.ResetStats();
  plan::PhysicalPlan plan = plan::PlanQuery(cluster, instance);
  plan.chosen = plan::Algorithm::kMatMulWorstCase;
  plan.predicted_load = 1;
  plan::ExecutionOptions options;
  options.load_budget_factor = 1.0;
  cluster.ResetStats();
  auto result = plan::TryExecuteWithRecovery(cluster, std::move(instance),
                                             options, &plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(plan.recovery.degraded_to_baseline);
  EXPECT_EQ(plan.recovery.replans, 0);
  EXPECT_EQ(plan.executed, plan::Algorithm::kYannakakis);
}

// --- abort safety of the accounting machinery ---------------------------------

TEST(AbortSafetyDeathTest, ResetStatsInsideARegionAborts) {
  mpc::Cluster cluster(4);
  EXPECT_DEATH(
      {
        mpc::ParallelRegion region(cluster);
        region.NextBranch();
        cluster.ResetStats();
      },
      "ResetStats inside an open parallel region");
}

TEST(AbortSafetyTest, RoundAbortUnwindClosesRegions) {
  mpc::Cluster cluster(4);
  cluster.SetLoadBudget(1);
  bool aborted = false;
  try {
    mpc::ParallelRegion region(cluster);
    cluster.ChargeUniformRound(100);
  } catch (const mpc::RoundAbort& abort) {
    aborted = true;
    EXPECT_EQ(abort.reason, mpc::RoundAbort::Reason::kLoadBudget);
    EXPECT_NE(abort.ToString().find("exceeded budget"), std::string::npos);
  }
  ASSERT_TRUE(aborted);
  cluster.ResetStats();  // aborts unless the unwound guard closed its region
  cluster.SetLoadBudget(0);
  cluster.ChargeUniformRound(100);
  EXPECT_EQ(cluster.stats().max_load, 100);
}

TEST(AbortSafetyDeathTest, OverflowingChargeAborts) {
  mpc::Cluster cluster(4);
  EXPECT_DEATH(cluster.ChargeUniformRound(
                   std::numeric_limits<std::int64_t>::max() / 2),
               "overflow");
}

}  // namespace
}  // namespace parjoin
