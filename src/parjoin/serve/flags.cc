#include "parjoin/serve/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "parjoin/plan/executor.h"

namespace parjoin {
namespace serve {

namespace {

// Shared shape checks: non-empty, no leading whitespace (strtol would skip
// it and hide the difference between " 8" and "8"), and for unsigned
// parses no leading '-' (strtoull silently wraps negatives).
Status PreflightNumeric(const std::string& text, bool allow_sign) {
  if (text.empty()) {
    return InvalidArgumentError("empty numeric value");
  }
  const char first = text[0];
  if (first == ' ' || first == '\t') {
    return InvalidArgumentError("numeric value '" + text +
                                "' has leading whitespace");
  }
  if (!allow_sign && (first == '-' || first == '+')) {
    return InvalidArgumentError("numeric value '" + text +
                                "' must be unsigned");
  }
  return OkStatus();
}

}  // namespace

StatusOr<std::int64_t> ParseInt64Text(const std::string& text) {
  PARJOIN_RETURN_IF_ERROR(PreflightNumeric(text, /*allow_sign=*/true));
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("'" + text + "' is not an integer");
  }
  if (errno == ERANGE) {
    return InvalidArgumentError("'" + text + "' is out of int64 range");
  }
  return static_cast<std::int64_t>(value);
}

StatusOr<std::uint64_t> ParseUint64Text(const std::string& text) {
  PARJOIN_RETURN_IF_ERROR(PreflightNumeric(text, /*allow_sign=*/false));
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("'" + text +
                                "' is not an unsigned integer");
  }
  if (errno == ERANGE) {
    return InvalidArgumentError("'" + text + "' is out of uint64 range");
  }
  return static_cast<std::uint64_t>(value);
}

StatusOr<double> ParseDoubleText(const std::string& text) {
  PARJOIN_RETURN_IF_ERROR(PreflightNumeric(text, /*allow_sign=*/true));
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return InvalidArgumentError("'" + text + "' is not a number");
  }
  if (errno == ERANGE) {
    return InvalidArgumentError("'" + text + "' is out of double range");
  }
  if (!std::isfinite(value)) {
    return InvalidArgumentError("'" + text + "' is not a finite number");
  }
  return value;
}

bool MatchFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

namespace {

template <typename T>
StatusOr<T> Contextualize(const std::string& flag, StatusOr<T> parsed,
                          const char* kind) {
  if (parsed.ok()) return parsed;
  return InvalidArgumentError("--" + flag + " needs " + kind + ": " +
                              parsed.status().message());
}

}  // namespace

StatusOr<std::int64_t> ParseInt64Flag(const std::string& flag,
                                      const std::string& value) {
  return Contextualize(flag, ParseInt64Text(value), "an integer");
}

StatusOr<std::uint64_t> ParseUint64Flag(const std::string& flag,
                                        const std::string& value) {
  return Contextualize(flag, ParseUint64Text(value), "an unsigned integer");
}

StatusOr<double> ParseDoubleFlag(const std::string& flag,
                                 const std::string& value) {
  return Contextualize(flag, ParseDoubleText(value), "a number");
}

StatusOr<bool> ParseSharedFlag(const std::string& arg,
                               plan::ExecutionOptions* exec, ObsFlags* obs) {
  if (arg == "--resume") {
    exec->resume_from_checkpoint = true;
    return true;
  }
  if (arg == "--replan") {
    exec->replan_on_budget_abort = true;
    return true;
  }
  std::string value;
  if (MatchFlag(arg, "faults", &value)) {
    StatusOr<std::uint64_t> seed = ParseUint64Flag("faults", value);
    if (!seed.ok()) return InvalidArgumentError(seed.status().ToString());
    exec->faults.enabled = true;
    exec->faults.seed = *seed;
    if (exec->checkpoint_interval == 0) exec->checkpoint_interval = 2;
    return true;
  }
  if (MatchFlag(arg, "checkpoint-interval", &value)) {
    StatusOr<std::int64_t> interval =
        ParseInt64Flag("checkpoint-interval", value);
    if (!interval.ok() || *interval < 0 || *interval > 1000000) {
      return InvalidArgumentError(
          "--checkpoint-interval needs an integer in [0, 1000000], got '" +
          value + "'");
    }
    exec->checkpoint_interval = static_cast<int>(*interval);
    return true;
  }
  const std::pair<const char*, double*> positive[] = {
      {"straggle-threshold", &exec->straggle_threshold},
      {"load-budget-factor", &exec->load_budget_factor}};
  for (const auto& [name, field] : positive) {
    if (!MatchFlag(arg, name, &value)) continue;
    StatusOr<double> parsed = ParseDoubleFlag(name, value);
    if (!parsed.ok() || *parsed <= 0) {
      return InvalidArgumentError(std::string("--") + name +
                                  " needs a number > 0, got '" + value + "'");
    }
    *field = *parsed;
    return true;
  }
  const std::pair<const char*, std::string*> paths[] = {
      {"trace-out", &obs->trace_out},
      {"profile", &obs->profile},
      {"calibration", &obs->calibration}};
  for (const auto& [name, field] : paths) {
    if (!MatchFlag(arg, name, &value)) continue;
    if (value.empty()) {
      return InvalidArgumentError(std::string("--") + name +
                                  " needs a file path");
    }
    *field = value;
    return true;
  }
  return false;
}

}  // namespace serve
}  // namespace parjoin
