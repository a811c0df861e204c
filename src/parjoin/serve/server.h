// The parjoind serving core: a long-lived query-serving runtime over the
// MPC simulator.
//
// Lifecycle:
//  1. RegisterRelation(name, csv): load + Distribute + per-column KMV
//     sketches happen ONCE, at registration. Registered partitions are
//     plain ScatterEvenly placements, so every query reuses them with a
//     fresh per-query cluster; the sketches' fingerprints go into plan
//     cache keys.
//  2. Enqueue(spec, label): append to the FIFO queue.
//  3. Drain(): serve everything, one query at a time in arrival order;
//     latency is wall-clock from Drain() start to each query's completion.
//
// Plan cache: keyed on the query structure (edges, outputs, p) plus the
// sketch fingerprint of every referenced relation. A hit skips the
// planner's estimation rounds — the dominant planning cost — and reuses
// the cached PhysicalPlan verbatim.
//
// Determinism: each query executes on a fresh Cluster seeded from the
// query's signature, so a cached-plan (warm) run replays exactly the rng
// stream of the cold run and produces bit-identical results. (On a cold
// run, planning draws from a separate signature-derived planning cluster,
// never from the execution cluster.)
//
// Isolation: execution goes through plan::TryExecuteWithRecovery, which
// also fills the plan's measured side, so a query that exhausts its
// recovery attempts (or fails validation) yields an error Outcome — and
// its possibly crash-shrunken cluster is simply discarded — while the
// server keeps serving.

#ifndef PARJOIN_SERVE_SERVER_H_
#define PARJOIN_SERVE_SERVER_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parjoin/common/hash.h"
#include "parjoin/common/status.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/obs/metrics.h"
#include "parjoin/plan/executor.h"
#include "parjoin/relation/io.h"
#include "parjoin/serve/plan_cache.h"
#include "parjoin/serve/spec.h"
#include "parjoin/sketch/relation_sketch.h"

namespace parjoin {
namespace serve {

struct ServerOptions {
  int p = 8;
  // Base seed; per-query cluster seeds derive from (seed, signature).
  std::uint64_t seed = 0xd1575ab4e9c0f372ULL;
  std::size_t plan_cache_capacity = 64;
  plan::PlannerOptions planner;
  // Default resilience options; Enqueue can override per query. Its
  // `profile` sink (when set) also backstops per-query overrides that
  // carry none, so every execution lands in the profile store.
  plan::ExecutionOptions exec;
  // Attached to every execution cluster (strictly read-only — the
  // determinism contract of mpc/observer.h makes warm/cold bit-identity
  // hold with tracing on). Not owned.
  mpc::RoundObserver* observer = nullptr;
};

template <SemiringC S>
class Server {
 public:
  struct Outcome {
    std::string label;
    Status status = OkStatus();  // per-query: an error never stops Drain
    Relation<S> result;          // Normalize()d; empty when status is not ok
    bool cache_hit = false;
    // Time spent obtaining the plan: the planner's estimation pass (cold)
    // or the cache lookup (warm); 0 when the query failed before planning.
    double plan_ms = 0;
    double latency_ms = 0;  // Drain() start -> this query's completion
    plan::PhysicalPlan plan;
  };

  explicit Server(ServerOptions options)
      : options_(std::move(options)), cache_(options_.plan_cache_capacity) {
    // Construction options are programmer input, not query ingress; the
    // binaries validate p upstream.
    // parjoin-lint: allow(ingress-status)
    CHECK_GT(options_.p, 0);
    // Created up front so a clean drain still exports queries_failed: 0.
    for (const char* name :
         {"queries_enqueued", "queries_served", "queries_failed"}) {
      registry_metrics_.GetCounter(name);
    }
  }

  // --- registration ---------------------------------------------------------

  // Loads the CSV and registers it as below; a duplicate name is rejected
  // before the file is read.
  Status RegisterRelation(const std::string& name, const std::string& path) {
    if (HasRelation(name)) return AlreadyRegisteredError(name);
    PARJOIN_ASSIGN_OR_RETURN(Relation<S> rel,
                             LoadRelationCsv<S>(path, Schema{0, 1}));
    return RegisterRelation(name, std::move(rel));
  }

  // In-memory registration (bench/test path): same registration work —
  // Distribute + sketches — without the CSV round-trip.
  Status RegisterRelation(const std::string& name, Relation<S> rel) {
    if (HasRelation(name)) return AlreadyRegisteredError(name);
    if (rel.schema().size() != 2) {
      return InvalidArgumentError("relation '" + name + "' is not binary");
    }
    DistRelation<S> dist;
    dist.schema = rel.schema();
    dist.data = mpc::ScatterEvenly(std::move(rel.tuples()), options_.p);
    Registered reg;
    reg.sketch = SketchRelation(dist);
    reg.data = std::move(dist.data);
    registry_.emplace(name, std::move(reg));
    return OkStatus();
  }

  // Registers every relation of a parsed workload file.
  Status RegisterWorkload(const WorkloadSpec& workload) {
    for (const WorkloadRegistration& r : workload.relations) {
      PARJOIN_RETURN_IF_ERROR(RegisterRelation(r.name, r.path));
    }
    return OkStatus();
  }

  bool HasRelation(const std::string& name) const {
    return registry_.find(name) != registry_.end();
  }

  // --- serving --------------------------------------------------------------

  Status Enqueue(QuerySpec spec, std::string label) {
    return Enqueue(std::move(spec), std::move(label), options_.exec);
  }

  // Per-query resilience override (fault injection, budgets, ...).
  Status Enqueue(QuerySpec spec, std::string label,
                 const plan::ExecutionOptions& exec) {
    for (const SpecEdge& e : spec.edges) {
      if (e.IsRef() && !HasRelation(e.RefName())) {
        return NotFoundError("query '" + label +
                             "' references unregistered relation '@" +
                             e.RefName() + "'");
      }
    }
    queue_.push_back(Pending{std::move(label), std::move(spec), exec});
    registry_metrics_.GetCounter("queries_enqueued")->Increment();
    return OkStatus();
  }

  // Serves every enqueued query in arrival order; one Outcome per query.
  std::vector<Outcome> Drain() {
    std::vector<Outcome> outcomes;
    Stopwatch clock;
    obs::Histogram* latency = registry_metrics_.GetHistogram(
        "query_latency_ms", obs::DefaultLatencyBucketsMs());
    while (!queue_.empty()) {
      Outcome out = Serve(std::move(queue_.front()));
      queue_.pop_front();
      out.latency_ms = clock.ElapsedMillis();
      latency->Observe(out.latency_ms);
      outcomes.push_back(std::move(out));
    }
    const double elapsed_s = clock.ElapsedSeconds();
    if (elapsed_s > 0 && !outcomes.empty()) {
      registry_metrics_.GetGauge("qps")->Set(
          static_cast<double>(outcomes.size()) / elapsed_s);
    }
    SyncMetrics();
    return outcomes;
  }

  // --- introspection --------------------------------------------------------

  const PlanCache& plan_cache() const { return cache_; }

  // The operational metrics registry (counters/gauges/histograms;
  // obs/metrics.h). SyncMetrics() refreshes the registry's mirrors of the
  // plan cache's counters — Drain() calls it on exit; call it before
  // ToJson() when reading mid-stream.
  obs::MetricsRegistry& metrics_registry() { return registry_metrics_; }

  void SyncMetrics() {
    const PlanCache::Counters& cc = cache_.counters();
    SyncCounter("plan_cache_hits", cc.hits);
    SyncCounter("plan_cache_misses", cc.misses);
    SyncCounter("plan_cache_evictions", cc.evictions);
  }

 private:
  struct Registered {
    mpc::Dist<Tuple<S>> data;  // p ScatterEvenly parts, schema-agnostic
    RelationSketch sketch;
  };

  struct Pending {
    std::string label;
    QuerySpec spec;
    plan::ExecutionOptions exec;
  };

  static Status AlreadyRegisteredError(const std::string& name) {
    return FailedPreconditionError("relation '" + name +
                                   "' already registered");
  }

  std::uint64_t PlanSeed(std::uint64_t signature) const {
    return HashCombine(options_.seed, HashCombine(0x70a11ed5ULL, signature));
  }
  std::uint64_t ExecSeed(std::uint64_t signature) const {
    return HashCombine(options_.seed, HashCombine(0xe8ec5eedULL, signature));
  }

  // Resolves a spec edge to (distributed relation, sketch fingerprint).
  // Registered references reuse the registration-time partitions and
  // sketch; literal CSV paths are loaded and sketched on the spot.
  StatusOr<std::pair<DistRelation<S>, std::uint64_t>> ResolveEdge(
      const SpecEdge& e) {
    const Schema schema{e.u, e.v};
    if (e.IsRef()) {
      auto it = registry_.find(e.RefName());
      if (it == registry_.end()) {
        return NotFoundError("unregistered relation '@" + e.RefName() + "'");
      }
      return std::make_pair(DistRelation<S>{schema, it->second.data},
                            it->second.sketch.Fingerprint());
    }
    PARJOIN_ASSIGN_OR_RETURN(Relation<S> rel,
                             LoadRelationCsv<S>(e.source, schema));
    DistRelation<S> dist;
    dist.schema = schema;
    dist.data = mpc::ScatterEvenly(std::move(rel.tuples()), options_.p);
    const std::uint64_t fp = SketchRelation(dist).Fingerprint();
    return std::make_pair(std::move(dist), fp);
  }

  // Builds the cache key: the full query structure plus per-edge relation
  // fingerprints. Two queries share a key iff they have the same edges
  // over content-identical relations, the same outputs, and the same p.
  static std::string CacheKey(const QuerySpec& spec,
                              const std::vector<std::uint64_t>& fps, int p) {
    std::string key = "p=" + std::to_string(p);
    for (std::size_t i = 0; i < spec.edges.size(); ++i) {
      key += "|e=" + std::to_string(spec.edges[i].u) + "-" +
             std::to_string(spec.edges[i].v) + "#" + std::to_string(fps[i]);
    }
    key += "|y=";
    for (AttrId a : spec.outputs) key += std::to_string(a) + ",";
    return key;
  }

  static std::uint64_t Signature(const std::string& cache_key) {
    std::uint64_t h = 0x5167a7c2e4d8b091ULL;
    for (char c : cache_key) {
      h = HashCombine(h, static_cast<std::uint64_t>(
                             static_cast<unsigned char>(c)));
    }
    return h;
  }

  // Resolves, signs, plans (or looks the plan up) and executes one query.
  // Every failure returns an error Outcome, counted once in
  // queries_failed.
  Outcome Serve(Pending pending) {
    Outcome out;
    out.label = std::move(pending.label);
    const auto fail = [&](Status status) {
      out.status = std::move(status);
      registry_metrics_.GetCounter("queries_failed")->Increment();
      return std::move(out);
    };

    std::vector<QueryEdge> edges;
    for (const SpecEdge& e : pending.spec.edges) edges.push_back({e.u, e.v});
    StatusOr<JoinTree> query =
        JoinTree::Create(std::move(edges), pending.spec.outputs);
    if (!query.ok()) return fail(query.status());
    TreeInstance<S> instance{std::move(query).value(), {}};
    std::vector<std::uint64_t> fps;
    for (const SpecEdge& e : pending.spec.edges) {
      auto resolved = ResolveEdge(e);
      if (!resolved.ok()) return fail(resolved.status());
      instance.relations.push_back(std::move(resolved->first));
      fps.push_back(resolved->second);
    }
    if (Status valid = instance.ValidateStatus(); !valid.ok()) {
      return fail(std::move(valid));
    }

    const std::string key = CacheKey(pending.spec, fps, options_.p);
    const std::uint64_t signature = Signature(key);
    Stopwatch sw;
    if (const plan::PhysicalPlan* cached = cache_.Lookup(key)) {
      out.plan = *cached;
      out.cache_hit = true;
      out.plan_ms = sw.ElapsedMillis();
    } else {
      // Planning draws rng from its own signature-seeded cluster, so the
      // execution cluster's stream is identical on cold and warm runs.
      mpc::Cluster plan_cluster(options_.p, PlanSeed(signature));
      out.plan = plan::PlanQuery(plan_cluster, instance, options_.planner);
      out.plan.planning_stats = plan_cluster.stats();
      out.plan_ms = sw.ElapsedMillis();
      cache_.Insert(key, out.plan);
    }

    mpc::Cluster cluster(options_.p, ExecSeed(signature));
    cluster.SetObserver(options_.observer);
    if (pending.exec.profile == nullptr) {
      pending.exec.profile = options_.exec.profile;
    }
    StatusOr<DistRelation<S>> result = plan::TryExecuteWithRecovery(
        cluster, std::move(instance), pending.exec, &out.plan);
    const mpc::Cluster::Stats& xs = out.plan.execution_stats;
    const plan::RecoveryReport& rec = out.plan.recovery;
    if (xs.crashes > 0) {
      registry_metrics_.GetCounter("recovery_crashes")->Increment(xs.crashes);
    }
    if (rec.attempts > 1) {
      registry_metrics_.GetCounter("recovery_replays")
          ->Increment(rec.attempts - 1);
    }
    if (rec.degraded_to_baseline) {
      registry_metrics_.GetCounter("recovery_degraded")->Increment();
    }
    // Fine-grained recovery ledger, exported per query so --metrics-out
    // carries the full recovery trail (resume/re-balance/re-plan counters
    // plus the charged recovery traffic behind them).
    if (xs.resumes > 0) {
      registry_metrics_.GetCounter("recovery_resumes")->Increment(xs.resumes);
      registry_metrics_.GetCounter("recovery_resumed_rounds")
          ->Increment(xs.resumed_rounds);
    }
    if (xs.rebalances > 0) {
      registry_metrics_.GetCounter("recovery_rebalances")
          ->Increment(xs.rebalances);
      registry_metrics_.GetCounter("recovery_rebalance_comm")
          ->Increment(xs.rebalance_comm);
    }
    if (rec.replans > 0) {
      registry_metrics_.GetCounter("recovery_replans")->Increment(rec.replans);
    }
    if (xs.recovery_comm > 0) {
      registry_metrics_.GetCounter("recovery_comm")
          ->Increment(xs.recovery_comm);
    }
    if (xs.retransmits > 0) {
      registry_metrics_.GetCounter("recovery_retransmits")
          ->Increment(xs.retransmits);
    }
    if (xs.critical_path > 0) {
      registry_metrics_.GetCounter("critical_path_total")
          ->Increment(xs.critical_path);
    }
    // On failure the cluster (possibly crash-shrunken) dies with this
    // scope; the next query gets a fresh one from the registered
    // partitions.
    if (!result.ok()) return fail(result.status());
    out.result = result->ToLocal();
    out.result.Normalize();
    registry_metrics_.GetCounter("queries_served")->Increment();
    return out;
  }

  // Sets a registry counter that mirrors an internally-tracked total to
  // that total (counters only add, so this applies the delta).
  void SyncCounter(const char* name, std::int64_t total) {
    obs::Counter* c = registry_metrics_.GetCounter(name);
    const std::int64_t delta = total - c->Value();
    if (delta != 0) c->Increment(delta);
  }

  ServerOptions options_;
  PlanCache cache_;
  std::unordered_map<std::string, Registered> registry_;
  std::deque<Pending> queue_;
  obs::MetricsRegistry registry_metrics_;
};

}  // namespace serve
}  // namespace parjoin

#endif  // PARJOIN_SERVE_SERVER_H_
