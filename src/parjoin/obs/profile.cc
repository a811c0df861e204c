#include "parjoin/obs/profile.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "parjoin/obs/json_util.h"

namespace parjoin {
namespace obs {
namespace {

// The largest run count a JSON number holds exactly. FromJson caps a
// file's total here, so every later int64 sum of runs stays far from
// overflow.
constexpr std::int64_t kMaxTotalRuns = std::int64_t{1} << 53;

int Log2Bucket(std::int64_t n) {
  int b = 0;
  for (std::int64_t v = n; v > 1; v >>= 1) ++b;
  return b;
}

std::string CellJson(const ProfileKey& key, const ProfileCell& cell) {
  std::ostringstream os;
  os << "{\"algorithm\":\"" << plan::AlgorithmName(key.algorithm)
     << "\",\"shape\":\"" << QueryShapeName(key.shape)
     << "\",\"p\":" << key.p << ",\"log2_n\":" << key.log2_n
     << ",\"runs\":" << cell.runs
     << ",\"sum_log_ratio\":" << JsonDouble(cell.sum_log_ratio)
     << ",\"sum_predicted\":" << JsonDouble(cell.sum_predicted)
     << ",\"sum_measured\":" << JsonDouble(cell.sum_measured)
     << ",\"sum_wall_ms\":" << JsonDouble(cell.sum_wall_ms) << '}';
  return os.str();
}

StatusOr<std::pair<ProfileKey, ProfileCell>> ParseCellLine(
    const std::string& line, const std::string& where) {
  PARJOIN_ASSIGN_OR_RETURN(FlatJsonObject obj,
                           ParseFlatJsonObject(line, where));
  ProfileKey key;
  ProfileCell cell;
  PARJOIN_ASSIGN_OR_RETURN(std::string algorithm,
                           GetString(obj, "algorithm", where));
  PARJOIN_ASSIGN_OR_RETURN(key.algorithm,
                           plan::AlgorithmFromName(algorithm));
  PARJOIN_ASSIGN_OR_RETURN(std::string shape,
                           GetString(obj, "shape", where));
  PARJOIN_ASSIGN_OR_RETURN(key.shape, QueryShapeFromName(shape));
  PARJOIN_ASSIGN_OR_RETURN(key.p, GetInt32(obj, "p", where));
  if (key.p < 1) return InvalidArgumentError(where + ": p must be >= 1");
  PARJOIN_ASSIGN_OR_RETURN(std::int64_t log2_n,
                           GetInt(obj, "log2_n", where));
  if (log2_n < 0 || log2_n > 62) {
    return InvalidArgumentError(where + ": log2_n out of range");
  }
  key.log2_n = static_cast<int>(log2_n);
  PARJOIN_ASSIGN_OR_RETURN(cell.runs, GetInt(obj, "runs", where));
  if (cell.runs < 1) {
    return InvalidArgumentError(where + ": runs must be >= 1");
  }
  PARJOIN_ASSIGN_OR_RETURN(cell.sum_log_ratio,
                           GetNumber(obj, "sum_log_ratio", where));
  PARJOIN_ASSIGN_OR_RETURN(cell.sum_predicted,
                           GetNumber(obj, "sum_predicted", where));
  PARJOIN_ASSIGN_OR_RETURN(cell.sum_measured,
                           GetNumber(obj, "sum_measured", where));
  PARJOIN_ASSIGN_OR_RETURN(cell.sum_wall_ms,
                           GetNumber(obj, "sum_wall_ms", where));
  return std::make_pair(key, cell);
}

}  // namespace

void ProfileStore::RecordExecution(const plan::ExecutionRecord& record) {
  if (record.predicted_load <= 0 || record.measured_load <= 0) return;
  ProfileKey key;
  key.algorithm = record.algorithm;
  key.shape = record.shape;
  key.p = record.p;
  key.log2_n = Log2Bucket(record.input_size);
  ProfileCell& cell = cells_[key];
  cell.runs += 1;
  cell.sum_log_ratio += std::log(
      static_cast<double>(record.measured_load) / record.predicted_load);
  cell.sum_predicted += record.predicted_load;
  cell.sum_measured += static_cast<double>(record.measured_load);
  cell.sum_wall_ms += record.wall_ms;
}

void ProfileStore::Merge(const ProfileStore& other) {
  for (const auto& [key, add] : other.cells_) {
    ProfileCell& cell = cells_[key];
    cell.runs += add.runs;
    cell.sum_log_ratio += add.sum_log_ratio;
    cell.sum_predicted += add.sum_predicted;
    cell.sum_measured += add.sum_measured;
    cell.sum_wall_ms += add.sum_wall_ms;
  }
}

std::int64_t ProfileStore::total_runs() const {
  std::int64_t total = 0;
  for (const auto& [key, cell] : cells_) total += cell.runs;
  return total;
}

std::string ProfileStore::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"" << kProfileSchema
     << "\",\"cells\":" << cells_.size() << "}\n";
  for (const auto& [key, cell] : cells_) {
    os << CellJson(key, cell) << '\n';
  }
  return os.str();
}

StatusOr<ProfileStore> ProfileStore::FromJson(const std::string& text) {
  ProfileStore store;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  std::int64_t declared_cells = -1;
  std::int64_t total_runs = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "profile line " + std::to_string(lineno);
    if (declared_cells < 0) {
      PARJOIN_ASSIGN_OR_RETURN(FlatJsonObject obj,
                               ParseFlatJsonObject(line, where));
      PARJOIN_ASSIGN_OR_RETURN(std::string schema,
                               GetString(obj, "schema", where));
      if (schema != kProfileSchema) {
        return InvalidArgumentError(where + ": unknown schema '" + schema +
                                    "' (want " + kProfileSchema + ")");
      }
      PARJOIN_ASSIGN_OR_RETURN(declared_cells,
                               GetInt(obj, "cells", where));
      if (declared_cells < 0) {
        return InvalidArgumentError(where + ": negative cell count");
      }
      continue;
    }
    PARJOIN_ASSIGN_OR_RETURN(auto parsed, ParseCellLine(line, where));
    if (store.cells_.count(parsed.first) > 0) {
      return InvalidArgumentError(where + ": duplicate cell");
    }
    if (parsed.second.runs > kMaxTotalRuns - total_runs) {
      return InvalidArgumentError(where + ": runs total exceeds 2^53");
    }
    total_runs += parsed.second.runs;
    store.cells_.emplace(parsed.first, parsed.second);
  }
  if (declared_cells < 0) {
    return InvalidArgumentError("profile: empty input (no header line)");
  }
  if (static_cast<std::int64_t>(store.cells_.size()) != declared_cells) {
    return InvalidArgumentError(
        "profile: header declares " + std::to_string(declared_cells) +
        " cell(s), file has " + std::to_string(store.cells_.size()));
  }
  return store;
}

Status ProfileStore::SaveFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return InvalidArgumentError("cannot open profile file for writing: " +
                                path);
  }
  out << ToJson();
  out.flush();
  if (!out) return DataLossError("failed writing profile file: " + path);
  return OkStatus();
}

StatusOr<ProfileStore> ProfileStore::LoadOrEmpty(const std::string& path) {
  std::ifstream probe(path);
  if (!probe) return ProfileStore{};
  std::ostringstream buf;
  buf << probe.rdbuf();
  return FromJson(buf.str());
}

plan::CalibrationTable FitCalibration(const ProfileStore& profile) {
  struct Fit {
    std::int64_t runs = 0;
    double sum_log_ratio = 0;
  };
  // Aggregated across p and size buckets: shape-specific and any-shape.
  std::map<std::pair<plan::Algorithm, QueryShape>, Fit> by_shape;
  std::map<plan::Algorithm, Fit> by_algorithm;
  for (const auto& [key, cell] : profile.cells()) {
    Fit& s = by_shape[{key.algorithm, key.shape}];
    s.runs += cell.runs;
    s.sum_log_ratio += cell.sum_log_ratio;
    Fit& a = by_algorithm[key.algorithm];
    a.runs += cell.runs;
    a.sum_log_ratio += cell.sum_log_ratio;
  }
  plan::CalibrationTable table;
  for (const auto& [algorithm, fit] : by_algorithm) {
    const double factor =
        std::exp(fit.sum_log_ratio / static_cast<double>(fit.runs));
    if (!std::isfinite(factor) || factor <= 0) continue;
    table.SetDefault(algorithm, factor, fit.runs);
  }
  for (const auto& [key, fit] : by_shape) {
    const double factor =
        std::exp(fit.sum_log_ratio / static_cast<double>(fit.runs));
    if (!std::isfinite(factor) || factor <= 0) continue;
    table.Set(key.first, key.second, factor, fit.runs);
  }
  return table;
}

Status SaveCalibrationFile(const plan::CalibrationTable& table,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return InvalidArgumentError(
        "cannot open calibration file for writing: " + path);
  }
  out << "{\"schema\":\"" << kCalibrationSchema
      << "\",\"entries\":" << table.entries().size() << "}\n";
  for (const plan::CalibrationTable::Entry& e : table.entries()) {
    out << "{\"algorithm\":\"" << plan::AlgorithmName(e.algorithm)
        << "\",\"shape\":\""
        << (e.has_shape ? QueryShapeName(e.shape) : "*")
        << "\",\"factor\":" << JsonDouble(e.factor)
        << ",\"runs\":" << e.runs << "}\n";
  }
  out.flush();
  if (!out) {
    return DataLossError("failed writing calibration file: " + path);
  }
  return OkStatus();
}

StatusOr<plan::CalibrationTable> LoadCalibrationFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open calibration file: " + path);
  plan::CalibrationTable table;
  std::string line;
  int lineno = 0;
  std::int64_t declared = -1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where =
        path + " line " + std::to_string(lineno);
    PARJOIN_ASSIGN_OR_RETURN(FlatJsonObject obj,
                             ParseFlatJsonObject(line, where));
    if (declared < 0) {
      PARJOIN_ASSIGN_OR_RETURN(std::string schema,
                               GetString(obj, "schema", where));
      if (schema != kCalibrationSchema) {
        return InvalidArgumentError(where + ": unknown schema '" + schema +
                                    "' (want " + kCalibrationSchema + ")");
      }
      PARJOIN_ASSIGN_OR_RETURN(declared, GetInt(obj, "entries", where));
      if (declared < 0) {
        return InvalidArgumentError(where + ": negative entry count");
      }
      continue;
    }
    PARJOIN_ASSIGN_OR_RETURN(std::string algorithm,
                             GetString(obj, "algorithm", where));
    PARJOIN_ASSIGN_OR_RETURN(plan::Algorithm a,
                             plan::AlgorithmFromName(algorithm));
    PARJOIN_ASSIGN_OR_RETURN(std::string shape,
                             GetString(obj, "shape", where));
    PARJOIN_ASSIGN_OR_RETURN(double factor,
                             GetNumber(obj, "factor", where));
    if (!std::isfinite(factor) || factor <= 0) {
      return InvalidArgumentError(where +
                                  ": factor must be finite and positive");
    }
    PARJOIN_ASSIGN_OR_RETURN(std::int64_t runs, GetInt(obj, "runs", where));
    if (runs < 0) return InvalidArgumentError(where + ": negative runs");
    if (shape == "*") {
      table.SetDefault(a, factor, runs);
    } else {
      PARJOIN_ASSIGN_OR_RETURN(QueryShape s, QueryShapeFromName(shape));
      table.Set(a, s, factor, runs);
    }
  }
  if (declared < 0) {
    return InvalidArgumentError(path + ": empty calibration file");
  }
  if (static_cast<std::int64_t>(table.entries().size()) != declared) {
    return InvalidArgumentError(
        path + ": header declares " + std::to_string(declared) +
        " entr(ies), file has " + std::to_string(table.entries().size()));
  }
  return table;
}

}  // namespace obs
}  // namespace parjoin
