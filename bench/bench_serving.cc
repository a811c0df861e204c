// E7 — the serving runtime: sustained throughput, latency, and the value
// of the plan cache.
//
// A parjoind Server registers four relations once (Distribute + KMV
// sketches at registration), then serves a seeded mixed workload of three
// query shapes (matmul, line, star) — 60 queries, each shape repeated —
// one at a time in arrival order.
//
// Reported: sustained queries/sec, p50/p99 latency, plan-cache hit rate,
// and mean cold (estimation pass) vs. warm (cache hit) planning time. The
// first query of each shape plans cold; every repeat hits the cache, so
// the hit rate is (queries - shapes) / queries and warm planning must be
// orders of magnitude below cold.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/random.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/common/table_printer.h"
#include "parjoin/serve/server.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

constexpr int kP = 16;
constexpr std::uint64_t kSeed = 42;

// Registers the four shared relations: ab(0,1), bc(1,2), cd(2,3), bd(1,3)
// — enough to express all three query shapes over the same registry.
std::int64_t RegisterRelations(serve::Server<S>& server) {
  Rng rng(kSeed);
  std::int64_t total = 0;
  const auto add = [&](const char* name, AttrId u, AttrId v,
                       std::int64_t count, std::int64_t dom_u,
                       std::int64_t dom_v) {
    Relation<S> rel = internal_workload::RandomBinaryRelation<S>(
        Schema{u, v}, count, dom_u, dom_v, /*skew_v=*/0.4,
        /*max_weight=*/10, rng);
    total += rel.size();
    CHECK_OK(server.RegisterRelation(name, std::move(rel)));
  };
  add("ab", 0, 1, 4000, 600, 200);
  add("bc", 1, 2, 4000, 200, 600);
  add("cd", 2, 3, 4000, 600, 200);
  add("bd", 1, 3, 4000, 200, 200);
  return total;
}

serve::QuerySpec MakeSpec(const std::vector<serve::SpecEdge>& edges,
                          const std::vector<AttrId>& outputs) {
  serve::QuerySpec spec;
  spec.p = kP;
  spec.edges = edges;
  spec.outputs = outputs;
  return spec;
}

struct Shape {
  std::string name;
  serve::QuerySpec spec;
  int repeat = 20;
};

std::vector<Shape> MixedWorkload() {
  std::vector<Shape> shapes;
  shapes.push_back({"matmul",
                    MakeSpec({{0, 1, "@ab"}, {1, 2, "@bc"}}, {0, 2}), 20});
  shapes.push_back(
      {"line",
       MakeSpec({{0, 1, "@ab"}, {1, 2, "@bc"}, {2, 3, "@cd"}}, {0, 3}),
       20});
  shapes.push_back(
      {"star",
       MakeSpec({{0, 1, "@ab"}, {1, 2, "@bc"}, {1, 3, "@bd"}}, {0, 2, 3}),
       20});
  return shapes;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

}  // namespace
}  // namespace parjoin

int main() {
  using namespace parjoin;
  bench::PrintHeader(
      "E7", "serving runtime (parjoind)",
      "Mixed 3-shape x 60-query workload through the Server: plan cache, "
      "FIFO serving, per-query isolation.");

  serve::ServerOptions options;
  options.p = kP;
  options.seed = kSeed;
  serve::Server<S> server(options);
  const std::int64_t n = RegisterRelations(server);

  std::int64_t enqueued = 0;
  for (const auto& shape : MixedWorkload()) {
    for (int rep = 0; rep < shape.repeat; ++rep) {
      CHECK_OK(
          server.Enqueue(shape.spec, shape.name + "#" + std::to_string(rep)));
      ++enqueued;
    }
  }

  Stopwatch clock;
  const auto outcomes = server.Drain();
  const double drain_s = clock.ElapsedSeconds();

  std::vector<double> latencies;
  mpc::Cluster::Stats totals;
  std::int64_t failed = 0;
  double cold_plan_ms = 0;
  double warm_plan_ms = 0;
  for (const auto& out : outcomes) {
    latencies.push_back(out.latency_ms);
    failed += out.status.ok() ? 0 : 1;
    (out.cache_hit ? warm_plan_ms : cold_plan_ms) += out.plan_ms;
    const auto& xs = out.plan.execution_stats;
    totals.max_load = std::max(totals.max_load, xs.max_load);
    totals.total_comm += xs.total_comm;
    totals.critical_path += xs.critical_path;
    totals.recovery_comm += xs.recovery_comm;
    totals.rounds += xs.rounds;
  }
  const serve::PlanCache::Counters& c = server.plan_cache().counters();
  const double qps =
      drain_s > 0 ? static_cast<double>(outcomes.size()) / drain_s : 0;
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double cold_ms =
      c.misses > 0 ? cold_plan_ms / static_cast<double>(c.misses) : 0;
  const double warm_ms =
      c.hits > 0 ? warm_plan_ms / static_cast<double>(c.hits) : 0;

  char qps_s[32], p50_s[32], p99_s[32], hit_s[32], cold_s[32], warm_s[32];
  std::snprintf(qps_s, sizeof(qps_s), "%.1f", qps);
  std::snprintf(p50_s, sizeof(p50_s), "%.3f", p50);
  std::snprintf(p99_s, sizeof(p99_s), "%.3f", p99);
  std::snprintf(hit_s, sizeof(hit_s), "%.3f", server.plan_cache().HitRate());
  std::snprintf(cold_s, sizeof(cold_s), "%.3f", cold_ms);
  std::snprintf(warm_s, sizeof(warm_s), "%.4f", warm_ms);
  TablePrinter table({"queries", "failed", "qps", "p50_ms", "p99_ms",
                      "hit_rate", "cold_plan_ms", "warm_plan_ms"});
  table.AddRow({std::to_string(enqueued), std::to_string(failed), qps_s,
                p50_s, p99_s, hit_s, cold_s, warm_s});
  table.Print(std::cout);
  std::cout << std::endl;

  bench::BenchJsonEntry entry;
  entry.experiment = "E7";
  entry.name = "serving/mixed/fifo/q=" + std::to_string(enqueued) +
               "/p=" + std::to_string(kP);
  entry.n = n;
  entry.p = kP;
  entry.threads = ParallelForThreads();
  entry.result.stats = totals;
  entry.result.wall_ms = drain_s * 1e3;
  entry.columns = {
      bench::FixedColumn("qps", qps, 3),
      bench::FixedColumn("p50_ms", p50, 3),
      bench::FixedColumn("p99_ms", p99, 3),
      bench::FixedColumn("cache_hit_rate", server.plan_cache().HitRate(), 4),
      bench::FixedColumn("cold_plan_ms", cold_ms, 3),
      bench::FixedColumn("warm_plan_ms", warm_ms, 3)};

  CHECK_EQ(failed, 0) << "E7 workload must serve cleanly";
  CHECK_GT(c.hits, 0);
  return bench::WriteBenchJson("E7", {entry}) ? 0 : 1;
}
