// Benchmark driver: replays one generated parjoind workload through
// serve::Server in a closed loop with one client — Enqueue one query,
// Drain, repeat — and writes raw measurements as one JSON document, which
// perfbench/metrics.py turns into metrics.
//
// A run is a sequence of passes until --seconds have elapsed. Each pass
// constructs a fresh Server, registers the whole catalog from CSV (timed:
// the set-up samples), then serves the stream once. Fresh servers make every
// pass an exact replay, so each pass's per-query ledgers must equal the
// first pass's (the ledger-determinism gate).
//
// --trace 1 alternates untraced and traced passes. A traced pass attaches
// an obs::TraceRecorder as the observer and a profile sink as the
// execution profile, and records spans around each registration call and
// each Enqueue+Drain; it then calls LoadRelationCsv, mpc::ScatterEvenly and
// SketchRelation directly to split registration by layer. Spans stay in
// memory and are written at exit.
//
// After the window, each distinct query's served result is compared with
// EvaluateReference on the same relations and, with --faults 1, with the
// result of a fault-free Server (the output-correctness gate). The exit
// code is nonzero when a gate fires or a query failed.
//
//   perfbench_driver --workload FILE --out FILE --spans FILE
//                    --seconds S --trace 0|1 --faults 0|1 --seed N
//
// Run it from the workload file's directory: perfbench/gen.py writes CSV
// paths relative to it.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gates.h"
#include "parjoin/algorithms/reference.h"
#include "parjoin/common/hash.h"
#include "parjoin/common/parallel_for.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/obs/json_util.h"
#include "parjoin/obs/trace.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/serve/server.h"

namespace perfbench {
namespace {

using namespace parjoin;
using S = CountingSemiring;
using obs::JsonDouble;
using obs::JsonEscape;

// Fault schedule of the faulted workload (per query, seeded by the query's
// stream position). The crash is pinned past the first checkpoint
// interval, so a replicated resume point exists when it fires; with the
// default horizon of 4 it would fire before any work was done.
constexpr int kCheckpointInterval = 2;
constexpr int kCrashRound = 8;
constexpr double kStraggleFactor = 6;
constexpr double kStraggleThreshold = 4;
constexpr double kLoadBudgetFactor = 4;

constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  std::string out;
  std::string spans;
  double seconds = 10;
  bool trace = false;
  bool faults = false;
  std::uint64_t seed = 1;
};

struct Query {
  std::string label;  // "<template>-<stream index>"
  std::string tpl;
  std::string key;    // edges + outputs: identifies a distinct query
  serve::QuerySpec spec;
  plan::ExecutionOptions exec;
};

struct ScopeCost {
  std::int64_t rounds = 0;
  std::int64_t tuples = 0;
  double ms = 0;
};

struct QueryRecord {
  QueryLedger ledger;
  double latency_ms = 0;  // Enqueue -> Drain return
  double plan_ms = 0;
  std::string status;     // "" when ok
  // Traced passes only.
  double exec_ms = -1;    // executor wall time (profile sink)
  double predicted_load = 0;
  std::int64_t measured_load = 0;
  std::map<std::string, ScopeCost> scopes;  // by top-level trace scope
};

struct PassResult {
  bool traced = false;
  std::vector<double> setup_s;  // one sample per catalog registration
  serve::PlanCache::Counters cache;
  std::vector<QueryRecord> queries;
};

struct Span {
  std::string name;
  std::string id;
  std::string parent;
  double start_ms = 0;
  double end_ms = 0;
};

// In-memory span log; written once, at exit.
class SpanLog {
 public:
  std::size_t Begin(std::string name, std::string id, std::string parent) {
    spans_.push_back({std::move(name), std::move(id), std::move(parent),
                      clock_.ElapsedMillis(), 0});
    return spans_.size() - 1;
  }
  void End(std::size_t span) { spans_[span].end_ms = clock_.ElapsedMillis(); }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"id\":\""
          << JsonEscape(s.id) << "\",\"parent\":\"" << JsonEscape(s.parent)
          << "\",\"start_ms\":" << JsonDouble(s.start_ms)
          << ",\"end_ms\":" << JsonDouble(s.end_ms) << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
};

// Keeps the newest execution record; read-only by the sink contract.
class LastExecution : public plan::ExecutionProfileSink {
 public:
  void RecordExecution(const plan::ExecutionRecord& record) override {
    last_ = record;
  }
  std::optional<plan::ExecutionRecord> Take() {
    std::optional<plan::ExecutionRecord> r = std::move(last_);
    last_.reset();
    return r;
  }

 private:
  std::optional<plan::ExecutionRecord> last_;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload FILE --out FILE "
               "--spans FILE --seconds S --trace 0|1 --faults 0|1 --seed N\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace" || flag == "--faults") {
      if (value != "0" && value != "1") Usage("bad " + flag);
      (flag == "--trace" ? args.trace : args.faults) = value == "1";
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.out.empty() || args.spans.empty()) {
    Usage("--workload, --out and --spans are required");
  }
  return args;
}

plan::ExecutionOptions FaultedOptions(std::uint64_t seed, std::size_t index) {
  plan::ExecutionOptions o;
  o.faults.enabled = true;
  o.faults.seed = HashCombine(seed, static_cast<std::uint64_t>(index));
  o.faults.crashes = 1;
  o.faults.stragglers = 1;
  o.faults.corruptions = 1;
  o.faults.crash_rounds = {kCrashRound};
  o.faults.straggle_min = kStraggleFactor;
  o.faults.straggle_max = kStraggleFactor;
  o.checkpoint_interval = kCheckpointInterval;
  o.resume_from_checkpoint = true;
  o.straggle_threshold = kStraggleThreshold;
  o.load_budget_factor = kLoadBudgetFactor;
  o.replan_on_budget_abort = true;
  return o;
}

std::vector<Query> BuildQueries(const serve::WorkloadSpec& workload,
                                const Args& args) {
  std::vector<Query> queries;
  for (const serve::WorkloadQuery& wq : workload.queries) {
    Query q;
    q.label = wq.label;
    q.tpl = wq.label.substr(0, wq.label.rfind('-'));
    for (const serve::SpecEdge& e : wq.spec.edges) {
      q.key += std::to_string(e.u) + "-" + std::to_string(e.v) + e.source +
               ";";
    }
    for (AttrId a : wq.spec.outputs) q.key += std::to_string(a) + ",";
    q.spec = wq.spec;
    if (args.faults) q.exec = FaultedOptions(args.seed, queries.size());
    queries.push_back(std::move(q));
  }
  return queries;
}

serve::ServerOptions MakeServerOptions(int p) {
  serve::ServerOptions options;
  options.p = p;
  return options;
}

QueryLedger LedgerOf(const serve::Server<S>::Outcome& out) {
  QueryLedger l;
  l.ok = out.status.ok();
  l.cache_hit = out.cache_hit;
  l.algorithm = plan::AlgorithmName(out.plan.executed);
  if (!out.cache_hit) l.planning = out.plan.planning_stats;
  l.execution = out.plan.execution_stats;
  l.attempts = out.plan.recovery.attempts;
  l.replans = out.plan.recovery.replans;
  l.budget_aborts = out.plan.recovery.budget_aborts;
  l.out_tuples = out.result.size();
  l.digest = ResultDigest(out.result);
  return l;
}

// Splits a traced query's charged rounds by top-level scope. Each round is
// charged the wall time since the previous round; the first round of the
// query counts from the end of planning (marker + plan_ms).
void AttributeRounds(const obs::TraceRecorder& recorder, std::size_t first,
                     double start_ms, QueryRecord* rec) {
  double prev = start_ms;
  const auto& rounds = recorder.rounds();
  for (std::size_t i = first; i < rounds.size(); ++i) {
    const obs::TraceRound& r = rounds[i];
    const std::string top =
        r.scope.empty() ? "unscoped" : r.scope.substr(0, r.scope.find('/'));
    ScopeCost& c = rec->scopes[top];
    c.rounds += r.resumed ? 0 : 1;
    c.tuples += r.tuples;
    c.ms += r.wall_ms - prev;
    prev = r.wall_ms;
  }
}

struct Runner {
  const serve::WorkloadSpec& workload;
  const std::vector<Query>& queries;
  SpanLog* spans;

  PassResult RunPass(int pass_index, bool traced) {
    PassResult pass;
    pass.traced = traced;
    const std::string pass_id = "pass" + std::to_string(pass_index);
    obs::TraceRecorder recorder(pass_id);
    LastExecution sink;
    serve::ServerOptions options = MakeServerOptions(workload.p);
    if (traced) {
      options.observer = &recorder;
      options.exec.profile = &sink;
    }

    // Untraced passes register the catalog kSetupRepeats times, each on a
    // fresh Server, and serve from the last one: set-up is short next to
    // the stream, and more samples steady its median.
    std::optional<serve::Server<S>> server;
    for (int rep = 0; rep < (traced ? 1 : kSetupRepeats); ++rep) {
      server.reset();
      const std::size_t setup_span =
          traced ? spans->Begin("serve.setup", pass_id, "") : 0;
      Stopwatch setup_clock;
      server.emplace(options);
      for (const serve::WorkloadRegistration& r : workload.relations) {
        const std::size_t span =
            traced ? spans->Begin("serve.register", r.name, pass_id) : 0;
        const Status st = server->RegisterRelation(r.name, r.path);
        if (!st.ok()) {
          std::cerr << "registering " << r.name << ": " << st << "\n";
          std::exit(1);
        }
        if (traced) spans->End(span);
      }
      pass.setup_s.push_back(setup_clock.ElapsedSeconds());
      if (traced) spans->End(setup_span);
    }
    if (traced) RegistrationBreakdown(pass_id);

    for (const Query& q : queries) {
      QueryRecord rec;
      std::size_t span = 0;
      std::size_t first_round = recorder.rounds().size();
      double marker_ms = 0;
      if (traced) {
        span = spans->Begin("serve.query", q.label, pass_id);
        recorder.OnEvent("bench_query", 0, q.label);
        marker_ms = recorder.events().back().wall_ms;
      }
      Stopwatch latency;
      const Status enq = server->Enqueue(q.spec, q.label, q.exec);
      std::vector<serve::Server<S>::Outcome> outs = server->Drain();
      rec.latency_ms = latency.ElapsedMillis();
      if (traced) spans->End(span);
      if (!enq.ok() || outs.size() != 1) {
        rec.status = enq.ok() ? "no outcome" : enq.ToString();
        pass.queries.push_back(std::move(rec));
        continue;
      }
      serve::Server<S>::Outcome& out = outs.front();
      rec.ledger = LedgerOf(out);
      rec.plan_ms = out.plan_ms;
      if (!out.status.ok()) rec.status = out.status.ToString();
      if (traced) {
        if (std::optional<plan::ExecutionRecord> e = sink.Take()) {
          rec.exec_ms = e->wall_ms;
          rec.predicted_load = e->predicted_load;
          rec.measured_load = e->measured_load;
        }
        AttributeRounds(recorder, first_round, marker_ms + out.plan_ms,
                        &rec);
      }
      pass.queries.push_back(std::move(rec));
    }
    pass.cache = server->plan_cache().counters();
    return pass;
  }

  // The registration layers, called directly so each gets its own span.
  void RegistrationBreakdown(const std::string& pass_id) {
    const std::string parent = "breakdown." + pass_id;
    for (const serve::WorkloadRegistration& r : workload.relations) {
      std::size_t span = spans->Begin("relation.load_csv", r.name, parent);
      StatusOr<Relation<S>> rel = LoadRelationCsv<S>(r.path, Schema{0, 1});
      spans->End(span);
      if (!rel.ok()) continue;  // registration above already succeeded
      span = spans->Begin("mpc.scatter", r.name, parent);
      DistRelation<S> dist{Schema{0, 1},
                           mpc::ScatterEvenly(std::move(rel->tuples()),
                                              workload.p)};
      spans->End(span);
      span = spans->Begin("sketch.sketch", r.name, parent);
      const RelationSketch sketch = SketchRelation(dist);
      spans->End(span);
    }
  }
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct GateReport {
  std::int64_t checked = 0;
  std::set<std::string> mismatched_keys;
  std::vector<std::string> messages;
};

// Output-correctness gate, oracle side: the first served result of each
// distinct query against EvaluateReference on the same CSVs.
GateReport CheckAgainstReference(const serve::WorkloadSpec& workload,
                                 const std::vector<Query>& queries,
                                 const std::vector<QueryRecord>& served) {
  GateReport report;
  std::map<std::string, std::string> paths;
  for (const auto& r : workload.relations) paths[r.name] = r.path;
  std::map<std::string, Relation<S>> loaded;
  std::set<std::string> done;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    // Failed queries are already counted; repeats share one check.
    if (!served[i].status.empty() || !done.insert(q.key).second) continue;
    std::vector<QueryEdge> edges;
    std::vector<Relation<S>> relations;
    for (const serve::SpecEdge& e : q.spec.edges) {
      auto it = loaded.find(e.RefName());
      if (it == loaded.end()) {
        StatusOr<Relation<S>> rel =
            LoadRelationCsv<S>(paths[e.RefName()], Schema{0, 1});
        if (!rel.ok()) {
          std::cerr << rel.status() << "\n";
          std::exit(1);
        }
        it = loaded.emplace(e.RefName(), std::move(rel).value()).first;
      }
      edges.push_back({e.u, e.v});
      relations.emplace_back(Schema{e.u, e.v}, it->second.tuples());
    }
    StatusOr<JoinTree> tree = JoinTree::Create(edges, q.spec.outputs);
    if (!tree.ok()) {
      std::cerr << q.label << ": " << tree.status() << "\n";
      std::exit(1);
    }
    report.checked += 1;
    const std::string diff =
        CompareResult(served[i].ledger.digest, served[i].ledger.out_tuples,
                      EvaluateReference(*tree, relations));
    if (!diff.empty()) {
      report.mismatched_keys.insert(q.key);
      report.messages.push_back(q.label + " vs reference: " + diff);
    }
  }
  return report;
}

// Output-correctness gate, fault side: the first served result of each
// distinct faulted query against the same query on a fault-free Server.
GateReport CheckAgainstTwin(const serve::WorkloadSpec& workload,
                            const std::vector<Query>& queries,
                            const std::vector<QueryRecord>& served) {
  GateReport report;
  serve::Server<S> twin(MakeServerOptions(workload.p));
  if (!twin.RegisterWorkload(workload).ok()) std::exit(1);
  std::set<std::string> done;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (!served[i].status.empty() || !done.insert(q.key).second) continue;
    if (!twin.Enqueue(q.spec, q.label).ok()) std::exit(1);
    std::vector<serve::Server<S>::Outcome> outs = twin.Drain();
    report.checked += 1;
    const std::string diff =
        outs.size() == 1 && outs[0].status.ok()
            ? CompareResult(served[i].ledger.digest,
                            served[i].ledger.out_tuples, outs[0].result)
            : "fault-free twin failed";
    if (!diff.empty()) {
      report.mismatched_keys.insert(q.key);
      report.messages.push_back(q.label + " vs fault-free twin: " + diff);
    }
  }
  return report;
}

void WriteStats(std::ostream& os, const mpc::Cluster::Stats& s) {
  os << "{\"rounds\":" << s.rounds << ",\"max_load\":" << s.max_load
     << ",\"comm\":" << s.total_comm << ",\"critical_path\":"
     << s.critical_path << ",\"recovery_comm\":" << s.recovery_comm
     << ",\"retransmits\":" << s.retransmits << ",\"crashes\":" << s.crashes
     << ",\"resumes\":" << s.resumes << ",\"resumed_rounds\":"
     << s.resumed_rounds << ",\"rebalances\":" << s.rebalances
     << ",\"rebalance_comm\":" << s.rebalance_comm << "}";
}

void WriteQuery(std::ostream& os, const Query& q, const QueryRecord& r) {
  const QueryLedger& l = r.ledger;
  os << "{\"label\":\"" << JsonEscape(q.label) << "\",\"tpl\":\""
     << JsonEscape(q.tpl) << "\",\"ok\":" << (r.status.empty() ? "true"
                                                               : "false")
     << ",\"status\":\"" << JsonEscape(r.status) << "\",\"hit\":"
     << (l.cache_hit ? "true" : "false") << ",\"algo\":\""
     << JsonEscape(l.algorithm) << "\",\"latency_ms\":"
     << JsonDouble(r.latency_ms) << ",\"plan_ms\":" << JsonDouble(r.plan_ms)
     << ",\"attempts\":" << l.attempts << ",\"replans\":" << l.replans
     << ",\"budget_aborts\":" << l.budget_aborts
     << ",\"out_tuples\":" << l.out_tuples << ",\"planning\":";
  WriteStats(os, l.planning);
  os << ",\"execution\":";
  WriteStats(os, l.execution);
  if (r.exec_ms >= 0) {
    os << ",\"exec_ms\":" << JsonDouble(r.exec_ms)
       << ",\"predicted_load\":" << JsonDouble(r.predicted_load)
       << ",\"measured_load\":" << r.measured_load << ",\"scopes\":{";
    bool first = true;
    for (const auto& [name, c] : r.scopes) {
      os << (first ? "" : ",") << "\"" << JsonEscape(name)
         << "\":{\"rounds\":" << c.rounds << ",\"tuples\":" << c.tuples
         << ",\"ms\":" << JsonDouble(c.ms) << "}";
      first = false;
    }
    os << "}";
  }
  os << "}";
}

void WriteStrings(std::ostream& os, const std::vector<std::string>& items) {
  os << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    os << (i ? "," : "") << "\"" << JsonEscape(items[i]) << "\"";
  }
  os << "]";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  StatusOr<serve::WorkloadSpec> workload =
      serve::ParseWorkloadFile(args.workload);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    return 1;
  }
  const std::vector<Query> queries = BuildQueries(*workload, args);

  SpanLog spans;
  Runner runner{*workload, queries, &spans};
  std::vector<PassResult> passes;
  Stopwatch window;
  // At least three passes of each kind run: the ledger gate always has a
  // replay to compare, and per-pass medians have a middle.
  const std::size_t min_passes = args.trace ? 6 : 3;
  while (passes.size() < min_passes || window.ElapsedSeconds() < args.seconds) {
    const bool traced = args.trace && passes.size() % 2 == 1;
    passes.push_back(runner.RunPass(static_cast<int>(passes.size()), traced));
  }
  const double window_s = window.ElapsedSeconds();
  const double peak_rss_mb = PeakRssMb();

  // Ledger-determinism gate.
  std::vector<std::string> ledger_errors;
  std::vector<QueryLedger> reference;
  for (const QueryRecord& r : passes[0].queries) reference.push_back(r.ledger);
  for (std::size_t i = 1; i < passes.size(); ++i) {
    std::vector<QueryLedger> replay;
    for (const QueryRecord& r : passes[i].queries) replay.push_back(r.ledger);
    const std::string diff = CompareLedgers(
        reference, replay,
        "pass " + std::to_string(i) + (passes[i].traced ? " (traced)" : ""));
    if (!diff.empty()) ledger_errors.push_back(diff);
  }
  // Trace-derived counts replay exactly too: each traced pass's per-scope
  // round and tuple counts must equal the first traced pass's.
  const PassResult* first_traced = nullptr;
  for (const PassResult& pass : passes) {
    if (!pass.traced) continue;
    if (first_traced == nullptr) {
      first_traced = &pass;
      continue;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto& a = first_traced->queries[i].scopes;
      const auto& b = pass.queries[i].scopes;
      const bool same = std::equal(
          a.begin(), a.end(), b.begin(), b.end(),
          [](const auto& x, const auto& y) {
            return x.first == y.first && x.second.rounds == y.second.rounds &&
                   x.second.tuples == y.second.tuples;
          });
      if (!same) {
        ledger_errors.push_back(queries[i].label +
                                ": trace scope counts differ between passes");
        break;
      }
    }
  }
  // Within a pass, every repeat of a distinct query serves the same result.
  std::map<std::string, std::uint64_t> digests;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryLedger& l = passes[0].queries[i].ledger;
    if (!l.ok) continue;
    auto [it, inserted] = digests.emplace(queries[i].key, l.digest);
    if (!inserted && it->second != l.digest) {
      ledger_errors.push_back(queries[i].label +
                              ": result differs from an earlier repeat");
    }
  }

  // Output-correctness gate.
  GateReport oracle =
      CheckAgainstReference(*workload, queries, passes[0].queries);
  GateReport twin;
  if (args.faults) {
    twin = CheckAgainstTwin(*workload, queries, passes[0].queries);
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const PassResult& pass : passes) {
    for (std::size_t i = 0; i < pass.queries.size(); ++i) {
      attempted += 1;
      const std::string& key = queries[i].key;
      if (!pass.queries[i].status.empty() ||
          oracle.mismatched_keys.count(key) || twin.mismatched_keys.count(key)) {
        failed += 1;
      }
    }
  }

  std::ofstream os(args.out);
  os << "{\"schema\":\"parjoin-perfbench-raw-v1\",\"p\":" << workload->p
     << ",\"threads\":" << ParallelForThreads()
     << ",\"faults\":" << (args.faults ? "true" : "false")
     << ",\"catalog_relations\":" << workload->relations.size()
     << ",\"window_s\":" << JsonDouble(window_s)
     << ",\"peak_rss_mb\":" << JsonDouble(peak_rss_mb)
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"oracle_checked\":" << oracle.checked
     << ",\"twin_checked\":" << twin.checked << ",\"errors\":";
  std::vector<std::string> errors = ledger_errors;
  errors.insert(errors.end(), oracle.messages.begin(), oracle.messages.end());
  errors.insert(errors.end(), twin.messages.begin(), twin.messages.end());
  for (const PassResult& pass : passes) {
    for (std::size_t i = 0; i < pass.queries.size(); ++i) {
      if (!pass.queries[i].status.empty()) {
        errors.push_back(queries[i].label + ": " + pass.queries[i].status);
      }
    }
  }
  WriteStrings(os, errors);
  os << ",\"passes\":[";
  for (std::size_t pi = 0; pi < passes.size(); ++pi) {
    const PassResult& pass = passes[pi];
    os << (pi ? ",\n" : "\n") << "{\"traced\":"
       << (pass.traced ? "true" : "false")
       << ",\"setup_s\":[";
    for (std::size_t i = 0; i < pass.setup_s.size(); ++i) {
      os << (i ? "," : "") << JsonDouble(pass.setup_s[i]);
    }
    os << "],\"cache_hits\":" << pass.cache.hits
       << ",\"cache_misses\":" << pass.cache.misses
       << ",\"cache_evictions\":" << pass.cache.evictions << ",\"queries\":[";
    for (std::size_t i = 0; i < pass.queries.size(); ++i) {
      os << (i ? ",\n" : "\n");
      WriteQuery(os, queries[i], pass.queries[i]);
    }
    os << "]}";
  }
  os << "]}\n";
  os.close();
  if (!os || !spans.Write(args.spans)) {
    std::cerr << "cannot write " << args.out << " / " << args.spans << "\n";
    return 1;
  }
  return errors.empty() ? 0 : 3;
}
