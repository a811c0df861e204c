// Minimal JSON helpers for the observability layer's line-oriented
// formats (trace JSONL, profile store, calibration tables).
//
// The parser handles exactly what those formats emit: one FLAT object per
// line — string keys mapping to strings, finite numbers, or booleans. No
// nesting, no arrays, no null. Anything else is an InvalidArgumentError
// (these files are external input; Status, not CHECK). The emitter side is
// the usual escape + shortest-roundtrip double rendering used elsewhere in
// the repo.

#ifndef PARJOIN_OBS_JSON_UTIL_H_
#define PARJOIN_OBS_JSON_UTIL_H_

#include <cstdint>
#include <map>
#include <string>

#include "parjoin/common/status.h"

namespace parjoin {
namespace obs {

std::string JsonEscape(const std::string& s);

// Shortest representation that round-trips a finite double.
std::string JsonDouble(double v);

// One parsed scalar. `is_*` discriminate; numbers are stored as double
// (the formats only emit values a double represents exactly or that are
// consumed as doubles anyway).
struct JsonScalar {
  enum class Kind { kString, kNumber, kBool };
  Kind kind = Kind::kNumber;
  std::string str;
  double num = 0;
  bool b = false;
};

using FlatJsonObject = std::map<std::string, JsonScalar>;

// Parses `{"k":"v","n":1,...}` — a single flat object spanning the whole
// input. `where` prefixes error messages (file:line context).
StatusOr<FlatJsonObject> ParseFlatJsonObject(const std::string& text,
                                             const std::string& where);

// Typed field accessors: the named field must exist and have the asked
// kind.
StatusOr<std::string> GetString(const FlatJsonObject& obj,
                                const std::string& key,
                                const std::string& where);
StatusOr<double> GetNumber(const FlatJsonObject& obj, const std::string& key,
                           const std::string& where);
// GetInt rejects non-integers and values outside int64; GetInt32 also
// rejects values outside int.
StatusOr<std::int64_t> GetInt(const FlatJsonObject& obj,
                              const std::string& key,
                              const std::string& where);
StatusOr<int> GetInt32(const FlatJsonObject& obj, const std::string& key,
                       const std::string& where);
StatusOr<bool> GetBool(const FlatJsonObject& obj, const std::string& key,
                       const std::string& where);

}  // namespace obs
}  // namespace parjoin

#endif  // PARJOIN_OBS_JSON_UTIL_H_
