// The parjoind serving core: plan-cache correctness (warm results
// bit-identical to cold, at 1 and 4 threads), LRU/counter bookkeeping,
// FIFO serving order, the exported metrics, and per-query fault isolation
// — a query that exhausts its recovery attempts yields an error Outcome
// while the server keeps serving.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/plan/plan.h"
#include "parjoin/serve/plan_cache.h"
#include "parjoin/serve/server.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;
using Server = serve::Server<S>;
using Outcome = Server::Outcome;

constexpr int kP = 8;

// Restores the default thread count even when a test body fails early.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetParallelForThreads(0); }
};

// Registers ab(0,1), bc(1,2), bd(1,3): enough for a matmul, a line, and a
// star shape over one registry.
void RegisterTestRelations(Server& server) {
  Rng rng(7);
  const auto add = [&](const char* name, AttrId u, AttrId v) {
    Relation<S> rel = internal_workload::RandomBinaryRelation<S>(
        Schema{u, v}, /*count=*/600, /*dom_u=*/60, /*dom_v=*/40,
        /*skew_v=*/0.3, /*max_weight=*/5, rng);
    CHECK_OK(server.RegisterRelation(name, std::move(rel)));
  };
  add("ab", 0, 1);
  add("bc", 1, 2);
  add("bd", 1, 3);
}

serve::QuerySpec MatmulSpec() {
  serve::QuerySpec spec;
  spec.p = kP;
  spec.edges = {{0, 1, "@ab"}, {1, 2, "@bc"}};
  spec.outputs = {0, 2};
  return spec;
}

serve::QuerySpec StarSpec() {
  serve::QuerySpec spec;
  spec.p = kP;
  spec.edges = {{0, 1, "@ab"}, {1, 2, "@bc"}, {1, 3, "@bd"}};
  spec.outputs = {0, 2, 3};
  return spec;
}

Server MakeServer() {
  serve::ServerOptions options;
  options.p = kP;
  options.seed = 99;
  return Server(options);
}

// The metrics registry's JSON dump: what the server exports.
std::string ExportedMetrics(Server& server) {
  server.SyncMetrics();
  return server.metrics_registry().ToJson();
}

// True when `json` carries the key `name` with exactly `value`.
bool Exports(const std::string& json, const std::string& name,
             std::int64_t value) {
  const std::string field = "\"" + name + "\":" + std::to_string(value);
  const std::size_t at = json.find(field);
  if (at == std::string::npos) return false;
  const char next = json[at + field.size()];
  return next == ',' || next == '}';
}

// --- plan cache (unit) ------------------------------------------------------

TEST(PlanCache, CountsHitsMissesAndEvictsLru) {
  serve::PlanCache cache(2);
  plan::PhysicalPlan plan;
  EXPECT_EQ(cache.Lookup("a"), nullptr);  // miss
  cache.Insert("a", plan);
  cache.Insert("b", plan);
  EXPECT_NE(cache.Lookup("a"), nullptr);  // hit; "a" becomes most recent
  cache.Insert("c", plan);                // evicts "b" (lru)
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().hits, 3);
  EXPECT_EQ(cache.counters().misses, 2);
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 3.0 / 5.0);
}

TEST(PlanCache, InsertRefreshesExistingKeyWithoutEviction) {
  serve::PlanCache cache(2);
  plan::PhysicalPlan plan;
  cache.Insert("a", plan);
  plan.predicted_load = 42;
  cache.Insert("a", plan);  // refresh, not a second entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().evictions, 0);
  const plan::PhysicalPlan* got = cache.Lookup("a");
  ASSERT_NE(got, nullptr);
  EXPECT_DOUBLE_EQ(got->predicted_load, 42);
}

// --- cache-hit correctness --------------------------------------------------

// The acceptance bar: results computed from a cached plan must be
// bit-identical to the cold-planned run, sequentially and threaded.
TEST(Serve, WarmResultsBitIdenticalToColdAcrossThreads) {
  ThreadOverrideGuard guard;
  std::vector<Relation<S>> per_thread_results;
  for (const int threads : {1, 4}) {
    SetParallelForThreads(threads);
    // Cold-only reference: a fresh server runs each shape once.
    Server cold = MakeServer();
    RegisterTestRelations(cold);
    CHECK_OK(cold.Enqueue(MatmulSpec(), "matmul"));
    CHECK_OK(cold.Enqueue(StarSpec(), "star"));
    const std::vector<Outcome> cold_out = cold.Drain();
    ASSERT_EQ(cold_out.size(), 2u);
    for (const Outcome& out : cold_out) {
      ASSERT_TRUE(out.status.ok()) << out.status;
      EXPECT_FALSE(out.cache_hit);
    }

    // Warm server: the same shapes enqueued twice; the repeats must hit
    // the cache and reproduce the cold results exactly.
    Server warm = MakeServer();
    RegisterTestRelations(warm);
    CHECK_OK(warm.Enqueue(MatmulSpec(), "matmul#0"));
    CHECK_OK(warm.Enqueue(StarSpec(), "star#0"));
    CHECK_OK(warm.Enqueue(MatmulSpec(), "matmul#1"));
    CHECK_OK(warm.Enqueue(StarSpec(), "star#1"));
    const std::vector<Outcome> warm_out = warm.Drain();
    ASSERT_EQ(warm_out.size(), 4u);
    EXPECT_FALSE(warm_out[0].cache_hit);
    EXPECT_FALSE(warm_out[1].cache_hit);
    EXPECT_TRUE(warm_out[2].cache_hit);
    EXPECT_TRUE(warm_out[3].cache_hit);
    for (const Outcome& out : warm_out) {
      ASSERT_TRUE(out.status.ok()) << out.label << ": " << out.status;
    }
    EXPECT_GT(warm_out[0].result.size(), 0);
    // Warm == cold, per shape.
    EXPECT_EQ(warm_out[2].result, warm_out[0].result);
    EXPECT_EQ(warm_out[3].result, warm_out[1].result);
    EXPECT_EQ(warm_out[0].result, cold_out[0].result);
    EXPECT_EQ(warm_out[1].result, cold_out[1].result);

    EXPECT_EQ(warm.plan_cache().counters().misses, 2);
    EXPECT_EQ(warm.plan_cache().counters().hits, 2);
    per_thread_results.push_back(warm_out[2].result);

    // A clean drain still exports its zero failures, and nothing of the
    // removed admission batches or duplicate plan counters.
    const std::string json = ExportedMetrics(warm);
    EXPECT_TRUE(Exports(json, "queries_failed", 0)) << json;
    for (const char* gone :
         {"batches", "plans_cold", "plans_warm", "admission_queue_depth"}) {
      EXPECT_EQ(json.find(std::string("\"") + gone + "\""), std::string::npos)
          << gone << " in " << json;
    }
  }
  // And the threaded run matches the sequential one.
  ASSERT_EQ(per_thread_results.size(), 2u);
  EXPECT_EQ(per_thread_results[0], per_thread_results[1]);
}

TEST(Serve, WarmPlanningIsCheaperThanCold) {
  Server server = MakeServer();
  RegisterTestRelations(server);
  for (int rep = 0; rep < 6; ++rep) {
    CHECK_OK(server.Enqueue(MatmulSpec(), "m#" + std::to_string(rep)));
  }
  const std::vector<Outcome> outcomes = server.Drain();
  ASSERT_EQ(outcomes.size(), 6u);
  // Served in arrival order: the cold query first, then five hits.
  double warm_plan_ms = 0;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(outcomes[i].label, "m#" + std::to_string(i));
    EXPECT_EQ(outcomes[i].cache_hit, i > 0);
    if (i > 0) warm_plan_ms += outcomes[i].plan_ms;
  }
  ASSERT_EQ(server.plan_cache().counters().misses, 1);
  ASSERT_EQ(server.plan_cache().counters().hits, 5);
  // Cold planning runs the planner's estimation rounds; warm planning is
  // an LRU lookup plus a plan copy — orders of magnitude apart.
  EXPECT_LT(warm_plan_ms / 5, outcomes[0].plan_ms);
  // A cache hit also skips the planning cluster entirely: cached plans
  // keep the cold run's planning_stats.
  EXPECT_EQ(outcomes[1].plan.planning_stats.rounds,
            outcomes[0].plan.planning_stats.rounds);
}

TEST(Serve, CacheEvictionForcesReplan) {
  serve::ServerOptions options;
  options.p = kP;
  options.seed = 99;
  options.plan_cache_capacity = 1;  // matmul and star evict each other
  Server server(options);
  RegisterTestRelations(server);
  CHECK_OK(server.Enqueue(MatmulSpec(), "m0"));
  CHECK_OK(server.Enqueue(StarSpec(), "s0"));
  CHECK_OK(server.Enqueue(MatmulSpec(), "m1"));
  const std::vector<Outcome> outcomes = server.Drain();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[2].cache_hit);  // m0's plan was evicted by s0
  EXPECT_EQ(server.plan_cache().counters().evictions, 2);
  EXPECT_EQ(server.plan_cache().counters().misses, 3);
  // Replanning from scratch still reproduces the same result.
  EXPECT_EQ(outcomes[2].result, outcomes[0].result);
}

// --- ingress and isolation --------------------------------------------------

TEST(Serve, EnqueueRejectsUnregisteredReference) {
  Server server = MakeServer();
  RegisterTestRelations(server);
  serve::QuerySpec spec = MatmulSpec();
  spec.edges[1].source = "@nope";
  const Status status = server.Enqueue(spec, "bad");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("'@nope'"), std::string::npos);
  EXPECT_TRUE(server.Drain().empty());  // nothing was queued
}

TEST(Serve, DuplicateRegistrationIsFailedPrecondition) {
  Server server = MakeServer();
  RegisterTestRelations(server);
  Relation<S> rel(Schema{0, 1});
  const Status status = server.RegisterRelation("ab", std::move(rel));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// A query that exhausts its recovery attempts under injected faults must
// fail with ResourceExhausted — and leave the server serving: the very
// next query (same shape, clean options) runs to the correct result.
TEST(Serve, FaultExhaustedQueryDoesNotTakeDownTheServer) {
  Server reference = MakeServer();
  RegisterTestRelations(reference);
  CHECK_OK(reference.Enqueue(MatmulSpec(), "ref"));
  const std::vector<Outcome> ref_out = reference.Drain();
  ASSERT_EQ(ref_out.size(), 1u);
  ASSERT_TRUE(ref_out[0].status.ok()) << ref_out[0].status;

  Server server = MakeServer();
  RegisterTestRelations(server);
  plan::ExecutionOptions doomed;
  doomed.faults.enabled = true;
  doomed.faults.seed = 3;
  doomed.faults.crashes = 2;
  doomed.faults.stragglers = 0;
  doomed.faults.corruptions = 0;
  doomed.faults.horizon = 2;  // the crash fires within two charged rounds
  doomed.checkpoint_interval = 2;
  doomed.max_attempts = 1;  // one crash exhausts the attempt budget
  CHECK_OK(server.Enqueue(MatmulSpec(), "doomed", doomed));
  CHECK_OK(server.Enqueue(MatmulSpec(), "after"));
  const std::vector<Outcome> outcomes = server.Drain();
  ASSERT_EQ(outcomes.size(), 2u);

  EXPECT_FALSE(outcomes[0].status.ok());
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kResourceExhausted)
      << outcomes[0].status;
  EXPECT_EQ(outcomes[0].result.size(), 0);

  ASSERT_TRUE(outcomes[1].status.ok()) << outcomes[1].status;
  // The follow-up even cache-hits the plan the doomed query planned.
  EXPECT_TRUE(outcomes[1].cache_hit);
  EXPECT_EQ(outcomes[1].result, ref_out[0].result);

  // The exported counters match what the Outcomes report.
  std::int64_t served = 0;
  std::int64_t hits = 0;
  for (const Outcome& out : outcomes) {
    served += out.status.ok() ? 1 : 0;
    hits += out.cache_hit ? 1 : 0;
  }
  const std::int64_t n = static_cast<std::int64_t>(outcomes.size());
  const std::string json = ExportedMetrics(server);
  EXPECT_TRUE(Exports(json, "queries_enqueued", n)) << json;
  EXPECT_TRUE(Exports(json, "queries_served", served)) << json;
  EXPECT_TRUE(Exports(json, "queries_failed", n - served)) << json;
  EXPECT_TRUE(Exports(json, "plan_cache_hits", hits)) << json;
  EXPECT_TRUE(Exports(json, "plan_cache_misses", n - hits)) << json;
}

// Recovery that stays within its attempt budget is invisible to the
// client: same Outcome results as a fault-free run.
TEST(Serve, RecoveredQueryMatchesFaultFreeResult) {
  Server reference = MakeServer();
  RegisterTestRelations(reference);
  CHECK_OK(reference.Enqueue(MatmulSpec(), "ref"));
  const std::vector<Outcome> ref_out = reference.Drain();
  ASSERT_EQ(ref_out.size(), 1u);

  Server server = MakeServer();
  RegisterTestRelations(server);
  plan::ExecutionOptions bumpy;
  bumpy.faults.enabled = true;
  bumpy.faults.seed = 5;
  bumpy.faults.crashes = 1;
  bumpy.faults.stragglers = 1;
  bumpy.faults.corruptions = 1;
  bumpy.checkpoint_interval = 2;
  CHECK_OK(server.Enqueue(MatmulSpec(), "bumpy", bumpy));
  const std::vector<Outcome> outcomes = server.Drain();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status;
  EXPECT_EQ(outcomes[0].result, ref_out[0].result);
  EXPECT_GE(outcomes[0].plan.recovery.attempts, 1);
  // Checkpointing traffic is charged to the resilience ledger.
  EXPECT_GT(outcomes[0].plan.execution_stats.recovery_comm, 0);
}

}  // namespace
}  // namespace parjoin
