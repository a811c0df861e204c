#include "parjoin/plan/planner.h"

#include <cmath>
#include <sstream>

namespace parjoin {
namespace plan {
namespace {

// Minimal JSON string escaping: the strings we emit (formulas, debug
// strings) only need quote/backslash/control handling.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void AppendStats(const char* key, const mpc::Cluster::Stats& s,
                 std::ostringstream& os) {
  os << '"' << key << "\":{\"rounds\":" << s.rounds
     << ",\"max_load\":" << s.max_load << ",\"total_comm\":" << s.total_comm
     << ",\"critical_path\":" << s.critical_path
     << ",\"recovery_comm\":" << s.recovery_comm
     << ",\"retransmits\":" << s.retransmits << ",\"crashes\":" << s.crashes
     << ",\"resumes\":" << s.resumes
     << ",\"resumed_rounds\":" << s.resumed_rounds
     << ",\"rebalances\":" << s.rebalances
     << ",\"rebalance_comm\":" << s.rebalance_comm << '}';
}

}  // namespace

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kSingleRelation:
      return "single_relation";
    case Algorithm::kYannakakis:
      return "yannakakis";
    case Algorithm::kHyperCube:
      return "hypercube";
    case Algorithm::kMatMulWorstCase:
      return "matmul_worst_case";
    case Algorithm::kMatMulOutputSensitive:
      return "matmul_output_sensitive";
    case Algorithm::kLineTheorem4:
      return "line_theorem4";
    case Algorithm::kStarTheorem5:
      return "star_theorem5";
    case Algorithm::kStarLikeLemma7:
      return "starlike_lemma7";
    case Algorithm::kTreeTheorem6:
      return "tree_theorem6";
  }
  return "?";
}

const Candidate* PhysicalPlan::CandidateFor(Algorithm a) const {
  for (const Candidate& c : candidates) {
    if (c.algorithm == a) return &c;
  }
  return nullptr;
}

Candidate* PhysicalPlan::MutableCandidateFor(Algorithm a) {
  for (Candidate& c : candidates) {
    if (c.algorithm == a) return &c;
  }
  return nullptr;
}

std::string PhysicalPlan::ToText() const {
  std::ostringstream os;
  os << "=== physical plan ===\n"
     << "shape: " << QueryShapeName(shape) << "\n"
     << "p = " << stats.p << ", N = " << stats.total_input << " (";
  for (size_t i = 0; i < stats.relation_sizes.size(); ++i) {
    if (i > 0) os << " + ";
    os << stats.relation_sizes[i];
  }
  os << ")\n"
     << "OUT " << (stats.out_is_estimated ? "~ " : "= ")
     << stats.out_estimate << ", largest intermediate J ~ "
     << stats.join_estimate << "\n"
     << "candidates (ascending predicted load"
     << (calibrated ? ", profile-calibrated" : "") << "):\n";
  for (const Candidate& c : candidates) {
    os << "  " << (c.algorithm == chosen ? "* " : "  ")
       << AlgorithmName(c.algorithm) << ": predicted "
       << static_cast<std::int64_t>(std::llround(c.predicted_load));
    if (c.calib_factor != 1) {
      os << " (x" << JsonDouble(c.calib_factor) << " calib)";
    }
    if (c.measured_load >= 0) os << ", measured " << c.measured_load;
    os << "  [" << c.formula << "]\n";
  }
  os << "chosen: " << AlgorithmName(chosen) << " (predicted load "
     << static_cast<std::int64_t>(std::llround(predicted_load)) << ")\n";
  if (measured_load >= 0) {
    os << "measured: load " << measured_load << " in "
       << execution_stats.rounds << " round(s)";
    if (out_actual >= 0) os << ", OUT = " << out_actual;
    if (predicted_load > 0) {
      os << "  (measured/predicted = "
         << JsonDouble(static_cast<double>(measured_load) / predicted_load)
         << ")";
    }
    os << "\n";
  }
  const mpc::Cluster::Stats& xs = execution_stats;
  if (executed != chosen || recovery.attempts > 1 || xs.crashes > 0 ||
      recovery.budget_aborts > 0 || xs.retransmits > 0) {
    os << "recovery: executed " << AlgorithmName(executed) << " in "
       << recovery.attempts << " attempt(s), " << xs.crashes
       << " crash(es), " << recovery.budget_aborts << " budget abort(s), "
       << xs.retransmits << " retransmit(s)";
    if (recovery.degraded_to_baseline) os << ", degraded to baseline";
    if (recovery.backoff_total > 0) {
      os << ", backoff " << recovery.backoff_total << " round(s)";
    }
    if (xs.resumes > 0) {
      os << ", resumed " << xs.resumes << " time(s) over "
         << xs.resumed_rounds << " checkpointed round(s)";
    }
    if (xs.rebalances > 0) {
      os << ", " << xs.rebalances << " re-balance round(s) ("
         << xs.rebalance_comm << " tuple(s))";
    }
    if (recovery.replans > 0) os << ", " << recovery.replans << " re-plan(s)";
    os << "\n"
       << "recovery comm: " << xs.recovery_comm << " tuple(s), critical path "
       << xs.critical_path << "\n";
    for (const std::string& e : recovery.events) {
      os << "  - " << e << "\n";
    }
  }
  if (!structure.empty()) os << "--- structure ---\n" << structure;
  return os.str();
}

std::string PhysicalPlan::ToJson() const {
  std::ostringstream os;
  os << "{\"shape\":\"" << QueryShapeName(shape) << "\",\"query\":\""
     << JsonEscape(query_debug) << "\",\"p\":" << stats.p
     << ",\"relation_sizes\":[";
  for (size_t i = 0; i < stats.relation_sizes.size(); ++i) {
    if (i > 0) os << ',';
    os << stats.relation_sizes[i];
  }
  os << "],\"total_input\":" << stats.total_input << ",\"n1\":" << stats.n1
     << ",\"n2\":" << stats.n2 << ",\"star_arity\":" << stats.star_arity
     << ",\"out_estimate\":" << stats.out_estimate
     << ",\"join_estimate\":" << stats.join_estimate
     << ",\"out_is_estimated\":"
     << (stats.out_is_estimated ? "true" : "false") << ",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (i > 0) os << ',';
    os << "{\"algorithm\":\"" << AlgorithmName(c.algorithm)
       << "\",\"predicted_load\":" << JsonDouble(c.predicted_load)
       << ",\"calib_factor\":" << JsonDouble(c.calib_factor)
       << ",\"formula\":\"" << JsonEscape(c.formula)
       << "\",\"measured_load\":" << c.measured_load << '}';
  }
  os << "],\"calibrated\":" << (calibrated ? "true" : "false")
     << ",\"chosen\":\"" << AlgorithmName(chosen)
     << "\",\"executed\":\"" << AlgorithmName(executed)
     << "\",\"predicted_load\":" << JsonDouble(predicted_load)
     << ",\"measured_load\":" << measured_load
     << ",\"out_actual\":" << out_actual << ',';
  AppendStats("planning", planning_stats, os);
  os << ',';
  AppendStats("execution", execution_stats, os);
  const mpc::Cluster::Stats& xs = execution_stats;
  os << ",\"recovery\":{\"attempts\":" << recovery.attempts
     << ",\"crashes\":" << xs.crashes
     << ",\"budget_aborts\":" << recovery.budget_aborts
     << ",\"retransmits\":" << xs.retransmits
     << ",\"recovery_comm\":" << xs.recovery_comm
     << ",\"critical_path\":" << xs.critical_path
     << ",\"degraded_to_baseline\":"
     << (recovery.degraded_to_baseline ? "true" : "false")
     << ",\"backoff_total\":" << recovery.backoff_total
     << ",\"resumes\":" << xs.resumes
     << ",\"resumed_rounds\":" << xs.resumed_rounds
     << ",\"rebalances\":" << xs.rebalances
     << ",\"rebalance_comm\":" << xs.rebalance_comm
     << ",\"replans\":" << recovery.replans << ",\"events\":[";
  for (size_t i = 0; i < recovery.events.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << JsonEscape(recovery.events[i]) << '"';
  }
  os << "]}}";
  return os.str();
}

}  // namespace plan
}  // namespace parjoin
