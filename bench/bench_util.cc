#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "parjoin/common/stopwatch.h"

namespace parjoin {
namespace bench {

RunResult Measure(int p, std::uint64_t seed,
                  const std::function<void(mpc::Cluster&)>& body) {
  mpc::Cluster cluster(p, seed);
  Stopwatch watch;
  body(cluster);
  RunResult result;
  result.wall_ms = watch.ElapsedMillis();
  result.stats = cluster.stats();
  return result;
}

std::string Ratio(double numerator, double denominator) {
  if (denominator <= 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", numerator / denominator);
  return buf;
}

void PrintHeader(const std::string& experiment_id,
                 const std::string& paper_artifact, const std::string& note) {
  std::cout << "\n=== " << experiment_id << " — " << paper_artifact
            << " ===\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << std::endl;
}

Column IntColumn(const std::string& key, std::int64_t value) {
  return {key, std::to_string(value)};
}

Column FixedColumn(const std::string& key, double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return {key, buf};
}

Column StringColumn(const std::string& key, const std::string& value) {
  return {key, "\"" + value + "\""};
}

namespace {

std::string FormatEntry(const BenchJsonEntry& e) {
  const mpc::Cluster::Stats& s = e.result.stats;
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "    {\"experiment\": \"%s\", \"name\": \"%s\", "
                "\"n\": %lld, \"p\": %d, \"threads\": %d, "
                "\"wall_ms\": %.3f, \"max_load\": %lld, \"rounds\": %d, "
                "\"total_comm\": %lld, \"critical_path\": %lld, "
                "\"recovery_comm\": %lld",
                e.experiment.c_str(), e.name.c_str(),
                static_cast<long long>(e.n), e.p, e.threads,
                e.result.wall_ms, static_cast<long long>(s.max_load),
                s.rounds, static_cast<long long>(s.total_comm),
                static_cast<long long>(s.critical_path),
                static_cast<long long>(s.recovery_comm));
  std::string line = buf;
  for (const Column& c : e.columns) {
    line += ", \"" + c.key + "\": " + c.json;
  }
  line += "}";
  return line;
}

// Extracts the experiment id from a line previously written by
// FormatEntry; empty string if the line is not an entry line.
std::string EntryExperiment(const std::string& line) {
  const std::string marker = "{\"experiment\": \"";
  const std::size_t start = line.find(marker);
  if (start == std::string::npos) return "";
  const std::size_t id_begin = start + marker.size();
  const std::size_t id_end = line.find('"', id_begin);
  if (id_end == std::string::npos) return "";
  return line.substr(id_begin, id_end - id_begin);
}

}  // namespace

bool UpdateBenchJson(const std::string& path, const std::string& experiment,
                     const std::vector<BenchJsonEntry>& entries,
                     std::string* error) {
  // Keep entry lines of other experiments from a previous run.
  std::vector<std::string> kept;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      // Strip a trailing comma so kept lines re-join cleanly below.
      if (!line.empty() && line.back() == ',') line.pop_back();
      const std::string id = EntryExperiment(line);
      if (!id.empty() && id != experiment) kept.push_back(line);
    }
  }
  for (const auto& e : entries) kept.push_back(FormatEntry(e));

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << "{\n  \"schema\": \"parjoin-bench-v1\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < kept.size(); ++i) {
    out << kept[i] << (i + 1 < kept.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool WriteBenchJson(const std::string& experiment,
                    const std::vector<BenchJsonEntry>& entries) {
  const char* env = std::getenv("PARJOIN_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_parjoin.json";
  std::string error;
  if (!UpdateBenchJson(path, experiment, entries, &error)) {
    std::cerr << "BENCH json: " << error << "\n";
    return false;
  }
  std::cout << "wrote " << entries.size() << " " << experiment
            << " entries to " << path << "\n";
  return true;
}

}  // namespace bench
}  // namespace parjoin
