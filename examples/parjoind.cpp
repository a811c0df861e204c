// parjoind: a long-lived query-serving runtime over the MPC simulator.
//
// Usage:
//   example_parjoind [flags] <workload-file>
//   example_parjoind [flags] --demo[=<dir>]   (write + serve a sample)
//
// Flags:
//   --plan-cache-capacity=<n>    LRU plan cache entries (default 64, >= 1)
//   --faults=<seed>              arm per-query deterministic fault
//                                injection
//   --checkpoint-interval=<r>    replicate state every r rounds (r >= 0)
//   --resume                     after a crash, fast-forward the replay
//                                over rounds the latest interval
//                                checkpoint covers instead of re-charging
//                                from round 1
//   --straggle-threshold=<f>     re-balance a straggled server's round
//                                load onto the others when the injected
//                                delay factor is >= f (f > 0; 0 = passive)
//   --load-budget-factor=<f>     per-round guardrail: abort rounds above
//                                f x predicted load and degrade (f > 0)
//   --replan                     on a load-budget abort, re-enter the
//                                planner with measured loads and run the
//                                cheapest remaining candidate instead of
//                                degrading straight to Yannakakis
//   --trace-out=<file>           write a parjoin-trace-v1 JSONL round
//                                trace of every execution (obs/trace.h)
//   --metrics-out=<file>         dump the metrics registry as JSON
//   --profile=<file>             persistent execution profile: merged
//                                across runs, written back on exit
//   --calibration=<file>         planner constant factors fitted from a
//                                profile (tools: query_runner
//                                --fit-calibration)
//
// The workload grammar lives in serve/spec.h: `register` relations once
// (load + Distribute + KMV sketches at registration), then `query` blocks
// whose edges reference them by @name. Queries are served one at a time
// in arrival order, planned through the plan cache, and executed with
// per-query isolation: a query that fails under injected faults reports
// an error and the server serves the next one.
// Exit codes: 0 served, 1 bad workload/registration, 2 bad flags.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "parjoin/common/status.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/obs/metrics.h"
#include "parjoin/obs/profile.h"
#include "parjoin/obs/trace.h"
#include "parjoin/relation/io.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/serve/flags.h"
#include "parjoin/serve/server.h"
#include "parjoin/serve/spec.h"

namespace {

using S = parjoin::CountingSemiring;

// Observability flags: where to write the trace/metrics dumps and which
// profile/calibration files to use (the shared ones plus the metrics
// dump).
struct ObsPaths : parjoin::serve::ObsFlags {
  std::string metrics_out;
};

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--plan-cache-capacity=<n>] [--faults=<seed>]"
               " [--checkpoint-interval=<r>]"
               " [--resume] [--straggle-threshold=<f>]"
               " [--load-budget-factor=<f>] [--replan]"
               " [--trace-out=<file>]"
               " [--metrics-out=<file>] [--profile=<file>]"
               " [--calibration=<file>] <workload-file> | --demo[=<dir>]"
               "\n";
  return 2;
}

int RunWorkload(const parjoin::serve::WorkloadSpec& workload,
                parjoin::serve::ServerOptions server_options,
                const ObsPaths& obs_paths) {
  server_options.p = workload.p;

  // Profile store: prior runs merged in, this run's executions recorded,
  // written back on exit — the "gets faster with traffic" loop.
  parjoin::obs::ProfileStore profile;
  if (!obs_paths.profile.empty()) {
    auto loaded = parjoin::obs::ProfileStore::LoadOrEmpty(obs_paths.profile);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status() << "\n";
      return 1;
    }
    profile = std::move(loaded).value();
    server_options.exec.profile = &profile;
  }

  parjoin::plan::CalibrationTable calibration;
  if (!obs_paths.calibration.empty()) {
    auto loaded = parjoin::obs::LoadCalibrationFile(obs_paths.calibration);
    if (!loaded.ok()) {
      std::cerr << "error: " << loaded.status() << "\n";
      return 1;
    }
    calibration = std::move(loaded).value();
    server_options.planner.calibration = &calibration;
  }

  parjoin::obs::TraceRecorder trace("parjoind");
  if (!obs_paths.trace_out.empty()) {
    trace.Annotate("p", std::to_string(workload.p));
    server_options.observer = &trace;
  }

  parjoin::serve::Server<S> server(std::move(server_options));
  if (const parjoin::Status reg = server.RegisterWorkload(workload);
      !reg.ok()) {
    std::cerr << "error: " << reg << "\n";
    return 1;
  }
  for (const auto& r : workload.relations) {
    std::cout << "registered @" << r.name << " from " << r.path << "\n";
  }

  for (const auto& q : workload.queries) {
    for (int rep = 0; rep < q.repeat; ++rep) {
      const std::string label =
          q.repeat == 1 ? q.label : q.label + "#" + std::to_string(rep);
      if (const parjoin::Status s = server.Enqueue(q.spec, label);
          !s.ok()) {
        std::cerr << "error: " << s << "\n";
        return 1;
      }
    }
  }

  parjoin::Stopwatch drain_clock;
  const auto outcomes = server.Drain();
  const double drain_ms = drain_clock.ElapsedMillis();

  // First successful outcome of each query block writes its result file.
  std::size_t at = 0;
  long long served = 0;
  double cold_plan_ms = 0;
  double warm_plan_ms = 0;
  for (const auto& q : workload.queries) {
    bool written = false;
    for (int rep = 0; rep < q.repeat; ++rep, ++at) {
      const auto& out = outcomes[at];
      std::printf("  %-12s %s %s plan %.3f ms, latency %.3f ms",
                  out.label.c_str(), out.status.ok() ? "ok " : "ERR",
                  out.cache_hit ? "warm" : "cold", out.plan_ms,
                  out.latency_ms);
      (out.cache_hit ? warm_plan_ms : cold_plan_ms) += out.plan_ms;
      if (out.status.ok()) {
        ++served;
        std::printf(", %lld tuples\n",
                    static_cast<long long>(out.result.size()));
      } else {
        std::printf(" (%s)\n", out.status.ToString().c_str());
      }
      if (!written && out.status.ok() && !q.spec.result_path.empty()) {
        if (const parjoin::Status saved = parjoin::SaveRelationCsv(
                q.spec.result_path, out.result);
            !saved.ok()) {
          std::cerr << "error: " << saved << "\n";
          return 1;
        }
        written = true;
      }
    }
  }

  const auto& c = server.plan_cache().counters();
  const auto total = static_cast<long long>(outcomes.size());
  std::printf("\nServed %lld/%lld queries (%lld failed), %.1f ms\n", served,
              total, total - served, drain_ms);
  std::printf(
      "Plan cache: %lld hit(s), %lld miss(es), %lld eviction(s) "
      "(hit rate %.2f)\n",
      static_cast<long long>(c.hits), static_cast<long long>(c.misses),
      static_cast<long long>(c.evictions),
      server.plan_cache().HitRate());
  if (c.misses > 0 && c.hits > 0) {
    std::printf("Planning: cold %.3f ms avg (%lld), warm %.3f ms avg "
                "(%lld)\n",
                cold_plan_ms / static_cast<double>(c.misses),
                static_cast<long long>(c.misses),
                warm_plan_ms / static_cast<double>(c.hits),
                static_cast<long long>(c.hits));
  }
  {
    auto& reg = server.metrics_registry();
    parjoin::obs::Histogram* latency = reg.GetHistogram(
        "query_latency_ms", parjoin::obs::DefaultLatencyBucketsMs());
    if (latency->Count() > 0) {
      std::printf("Latency: p50 %.3f ms, p99 %.3f ms; qps %.1f\n",
                  latency->Quantile(0.5), latency->Quantile(0.99),
                  reg.GetGauge("qps")->Value());
    }
  }

  if (!obs_paths.trace_out.empty()) {
    if (const parjoin::Status s = trace.WriteFile(obs_paths.trace_out);
        !s.ok()) {
      std::cerr << "error: " << s << "\n";
      return 1;
    }
    std::printf("Trace: %lld round(s), %lld event(s) -> %s\n",
                static_cast<long long>(trace.rounds().size()),
                static_cast<long long>(trace.events().size()),
                obs_paths.trace_out.c_str());
  }
  if (!obs_paths.metrics_out.empty()) {
    server.SyncMetrics();
    if (const parjoin::Status s =
            server.metrics_registry().WriteFile(obs_paths.metrics_out);
        !s.ok()) {
      std::cerr << "error: " << s << "\n";
      return 1;
    }
    std::printf("Metrics -> %s\n", obs_paths.metrics_out.c_str());
  }
  if (!obs_paths.profile.empty()) {
    if (const parjoin::Status s = profile.SaveFile(obs_paths.profile);
        !s.ok()) {
      std::cerr << "error: " << s << "\n";
      return 1;
    }
    std::printf("Profile: %lld cell(s), %lld run(s) -> %s\n",
                static_cast<long long>(profile.cells().size()),
                static_cast<long long>(profile.total_runs()),
                obs_paths.profile.c_str());
  }
  return 0;
}

// Writes a deterministic mixed demo workload: three query shapes (matmul,
// line, star) over four registered relations, 20 queries total.
parjoin::StatusOr<std::string> WriteDemoWorkload(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return parjoin::InvalidArgumentError("cannot create demo directory " +
                                         dir + ": " + ec.message());
  }
  {
    std::ofstream ab(dir + "/r_ab.csv");
    for (int a = 0; a < 30; ++a) {
      for (int b = a % 4; b < 12; b += 4) ab << a << "," << b << ",1\n";
    }
    std::ofstream bc(dir + "/r_bc.csv");
    for (int b = 0; b < 12; ++b) {
      for (int cv = b % 3; cv < 9; cv += 3) {
        bc << b << "," << cv << "," << (1 + b % 2) << "\n";
      }
    }
    std::ofstream cd(dir + "/r_cd.csv");
    for (int cv = 0; cv < 9; ++cv) {
      for (int d = cv % 2; d < 6; d += 2) cd << cv << "," << d << ",1\n";
    }
    std::ofstream bd(dir + "/r_bd.csv");
    for (int b = 0; b < 12; ++b) {
      for (int d = b % 2; d < 6; d += 2) bd << b << "," << d << ",1\n";
    }
  }
  const std::string path = dir + "/workload.spec";
  std::ofstream w(path);
  w << "# mixed demo workload: 3 shapes, 20 queries\n"
    << "p 8\n"
    << "register ab " << dir << "/r_ab.csv\n"
    << "register bc " << dir << "/r_bc.csv\n"
    << "register cd " << dir << "/r_cd.csv\n"
    << "register bd " << dir << "/r_bd.csv\n"
    << "query matmul\n"
    << "edge 0 1 @ab\n"
    << "edge 1 2 @bc\n"
    << "output 0 2\n"
    << "result " << dir << "/matmul.csv\n"
    << "repeat 8\n"
    << "end\n"
    << "query line\n"
    << "edge 0 1 @ab\n"
    << "edge 1 2 @bc\n"
    << "edge 2 3 @cd\n"
    << "output 0 3\n"
    << "repeat 6\n"
    << "end\n"
    << "query star\n"
    << "edge 0 1 @ab\n"
    << "edge 1 2 @bc\n"
    << "edge 1 3 @bd\n"
    << "output 0 2 3\n"
    << "repeat 6\n"
    << "end\n";
  if (!w) {
    return parjoin::DataLossError("write to " + path + " failed");
  }
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  std::string demo_dir = "/tmp/parjoind_demo";
  parjoin::serve::ServerOptions server_options;
  ObsPaths obs_paths;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const parjoin::StatusOr<bool> shared = parjoin::serve::ParseSharedFlag(
        arg, &server_options.exec, &obs_paths);
    if (!shared.ok()) {
      std::cerr << "error: " << shared.status().message() << "\n";
      return Usage(argv[0]);
    }
    if (*shared) continue;
    std::string value;
    if (arg == "--demo") {
      demo = true;
    } else if (parjoin::serve::MatchFlag(arg, "demo", &value)) {
      demo = true;
      demo_dir = value;
    } else if (parjoin::serve::MatchFlag(arg, "plan-cache-capacity",
                                         &value)) {
      auto capacity =
          parjoin::serve::ParseInt64Flag("plan-cache-capacity", value);
      if (!capacity.ok() || *capacity < 1 || *capacity > 1000000) {
        std::cerr << "error: --plan-cache-capacity needs an integer in "
                     "[1, 1000000], got '"
                  << value << "'\n";
        return Usage(argv[0]);
      }
      server_options.plan_cache_capacity =
          static_cast<std::size_t>(*capacity);
    } else if (parjoin::serve::MatchFlag(arg, "metrics-out", &value)) {
      if (value.empty()) {
        std::cerr << "error: --metrics-out needs a file path\n";
        return Usage(argv[0]);
      }
      obs_paths.metrics_out = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return Usage(argv[0]);
    } else {
      args.push_back(arg);
    }
  }

  std::string workload_path;
  if (demo) {
    if (!args.empty()) {
      std::cerr << "error: --demo takes no workload file\n";
      return Usage(argv[0]);
    }
    auto written = WriteDemoWorkload(demo_dir);
    if (!written.ok()) {
      std::cerr << "error: " << written.status() << "\n";
      return 1;
    }
    workload_path = *written;
    std::cout << "Demo workload written to " << workload_path << "\n\n";
  } else if (args.size() == 1) {
    workload_path = args[0];
  } else {
    return Usage(argv[0]);
  }

  auto workload = parjoin::serve::ParseWorkloadFile(workload_path);
  if (!workload.ok()) {
    std::cerr << "error: " << workload.status() << "\n";
    return 1;
  }
  return RunWorkload(*workload, std::move(server_options), obs_paths);
}
