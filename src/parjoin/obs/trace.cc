#include "parjoin/obs/trace.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "parjoin/common/logging.h"
#include "parjoin/obs/json_util.h"

namespace parjoin {
namespace obs {

TraceRecorder::TraceRecorder(std::string label)
    : label_(std::move(label)) {}

void TraceRecorder::OnRound(const mpc::RoundRecord& record) {
  TraceRound r;
  r.seq = next_seq_++;
  r.round = record.round;
  std::string scope;
  for (const char* s : scope_stack_) {
    if (!scope.empty()) scope += '/';
    scope += s;
  }
  r.scope = std::move(scope);
  r.max_load = record.max_load;
  r.tuples = record.tuples;
  r.recovery = record.recovery;
  r.straggle = record.straggle_factor;
  r.resumed = record.resumed;
  r.wall_ms = since_start_.ElapsedMillis();
  rounds_.push_back(std::move(r));
}

void TraceRecorder::OnEventRecord(const mpc::EventRecord& event) {
  TraceEvent e;
  e.seq = next_seq_++;
  e.kind = event.kind;
  e.round = event.round;
  e.detail = event.detail;
  e.server = event.server;
  e.factor = event.factor;
  e.moved = event.moved;
  e.wall_ms = since_start_.ElapsedMillis();
  events_.push_back(std::move(e));
}

void TraceRecorder::PushScope(const char* name) {
  scope_stack_.push_back(name);
}

void TraceRecorder::PopScope() {
  CHECK(!scope_stack_.empty()) << "PopScope without a matching PushScope";
  scope_stack_.pop_back();
}

void TraceRecorder::Annotate(const std::string& key,
                             const std::string& value) {
  CHECK(key != "type" && key != "schema" && key != "label")
      << "reserved trace annotation key: " << key;
  annotations_[key] = value;
}

std::string TraceRecorder::ToJsonl() const {
  std::ostringstream os;
  os << "{\"type\":\"meta\",\"schema\":\"" << kTraceSchema
     << "\",\"label\":\"" << JsonEscape(label_) << '"';
  for (const auto& [key, value] : annotations_) {
    os << ",\"" << JsonEscape(key) << "\":\"" << JsonEscape(value) << '"';
  }
  os << "}\n";

  // Interleave rounds and events back into emission order: both vectors
  // are individually seq-sorted, so a two-finger merge restores the
  // global sequence.
  size_t ri = 0;
  size_t ei = 0;
  while (ri < rounds_.size() || ei < events_.size()) {
    const bool take_round =
        ei >= events_.size() ||
        (ri < rounds_.size() && rounds_[ri].seq < events_[ei].seq);
    if (take_round) {
      const TraceRound& r = rounds_[ri++];
      os << "{\"type\":\"round\",\"seq\":" << r.seq
         << ",\"round\":" << r.round << ",\"scope\":\""
         << JsonEscape(r.scope) << "\",\"max_load\":" << r.max_load
         << ",\"tuples\":" << r.tuples << ",\"recovery\":"
         << (r.recovery ? "true" : "false")
         << ",\"straggle\":" << JsonDouble(r.straggle)
         << ",\"resumed\":" << (r.resumed ? "true" : "false")
         << ",\"wall_ms\":" << JsonDouble(r.wall_ms) << "}\n";
    } else {
      const TraceEvent& e = events_[ei++];
      os << "{\"type\":\"event\",\"seq\":" << e.seq << ",\"kind\":\""
         << JsonEscape(e.kind) << "\",\"round\":" << e.round
         << ",\"detail\":\"" << JsonEscape(e.detail) << '"';
      if (e.server >= 0) os << ",\"server\":" << e.server;
      if (e.factor > 0) os << ",\"factor\":" << JsonDouble(e.factor);
      if (e.moved >= 0) os << ",\"moved\":" << e.moved;
      os << ",\"wall_ms\":" << JsonDouble(e.wall_ms) << "}\n";
    }
  }
  return os.str();
}

Status TraceRecorder::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return InvalidArgumentError("cannot open trace output file: " + path);
  }
  out << ToJsonl();
  out.flush();
  if (!out) {
    return DataLossError("failed writing trace output file: " + path);
  }
  return OkStatus();
}

StatusOr<ParsedTrace> ParseTraceJsonl(const std::string& text) {
  ParsedTrace parsed;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_meta = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::string where = "trace line " + std::to_string(lineno);
    PARJOIN_ASSIGN_OR_RETURN(FlatJsonObject obj,
                             ParseFlatJsonObject(line, where));
    PARJOIN_ASSIGN_OR_RETURN(std::string type,
                             GetString(obj, "type", where));
    if (type == "meta") {
      if (saw_meta) {
        return InvalidArgumentError(where + ": duplicate meta line");
      }
      if (lineno != 1) {
        return InvalidArgumentError(where +
                                    ": meta must be the first line");
      }
      saw_meta = true;
      PARJOIN_ASSIGN_OR_RETURN(std::string schema,
                               GetString(obj, "schema", where));
      if (schema != kTraceSchema) {
        return InvalidArgumentError(where + ": unknown schema '" + schema +
                                    "' (want " + kTraceSchema + ")");
      }
      PARJOIN_ASSIGN_OR_RETURN(parsed.label,
                               GetString(obj, "label", where));
      for (const auto& [key, value] : obj) {
        if (key == "type" || key == "schema" || key == "label") continue;
        if (value.kind != JsonScalar::Kind::kString) {
          return InvalidArgumentError(where + ": annotation '" + key +
                                      "' is not a string");
        }
        parsed.annotations[key] = value.str;
      }
    } else if (type == "round") {
      if (!saw_meta) {
        return InvalidArgumentError(where + ": round before meta line");
      }
      TraceRound r;
      PARJOIN_ASSIGN_OR_RETURN(r.seq, GetInt32(obj, "seq", where));
      PARJOIN_ASSIGN_OR_RETURN(r.round, GetInt32(obj, "round", where));
      PARJOIN_ASSIGN_OR_RETURN(r.scope, GetString(obj, "scope", where));
      PARJOIN_ASSIGN_OR_RETURN(r.max_load, GetInt(obj, "max_load", where));
      PARJOIN_ASSIGN_OR_RETURN(r.tuples, GetInt(obj, "tuples", where));
      PARJOIN_ASSIGN_OR_RETURN(r.recovery, GetBool(obj, "recovery", where));
      PARJOIN_ASSIGN_OR_RETURN(r.straggle,
                               GetNumber(obj, "straggle", where));
      if (obj.count("resumed") > 0) {
        PARJOIN_ASSIGN_OR_RETURN(r.resumed, GetBool(obj, "resumed", where));
      }
      PARJOIN_ASSIGN_OR_RETURN(r.wall_ms, GetNumber(obj, "wall_ms", where));
      parsed.rounds.push_back(std::move(r));
    } else if (type == "event") {
      if (!saw_meta) {
        return InvalidArgumentError(where + ": event before meta line");
      }
      TraceEvent e;
      PARJOIN_ASSIGN_OR_RETURN(e.seq, GetInt32(obj, "seq", where));
      PARJOIN_ASSIGN_OR_RETURN(e.kind, GetString(obj, "kind", where));
      PARJOIN_ASSIGN_OR_RETURN(e.round, GetInt32(obj, "round", where));
      PARJOIN_ASSIGN_OR_RETURN(e.detail, GetString(obj, "detail", where));
      if (obj.count("server") > 0) {
        PARJOIN_ASSIGN_OR_RETURN(e.server, GetInt32(obj, "server", where));
      }
      if (obj.count("factor") > 0) {
        PARJOIN_ASSIGN_OR_RETURN(e.factor, GetNumber(obj, "factor", where));
      }
      if (obj.count("moved") > 0) {
        PARJOIN_ASSIGN_OR_RETURN(e.moved, GetInt(obj, "moved", where));
      }
      PARJOIN_ASSIGN_OR_RETURN(e.wall_ms, GetNumber(obj, "wall_ms", where));
      parsed.events.push_back(std::move(e));
    } else {
      return InvalidArgumentError(where + ": unknown line type '" + type +
                                  "'");
    }
  }
  if (!saw_meta) {
    return InvalidArgumentError("trace: empty input (no meta line)");
  }
  return parsed;
}

}  // namespace obs
}  // namespace parjoin
