// Checked numeric parsing for command-line flags and spec directives.
//
// strtol-family calls with no endptr/range validation turn typos into
// silent zeros (`--faults=abc` used to become seed 0, and
// `--checkpoint-interval=-3` was accepted as a negative interval). These
// helpers parse the WHOLE token or fail: leading/trailing garbage, empty
// strings, and out-of-range values all surface as InvalidArgument with the
// offending text in the message. Both query_runner and parjoind route
// every numeric flag through them and exit 2 with a usage line on error;
// the flags the two binaries share are parsed once, by ParseSharedFlag.

#ifndef PARJOIN_SERVE_FLAGS_H_
#define PARJOIN_SERVE_FLAGS_H_

#include <cstdint>
#include <string>

#include "parjoin/common/status.h"

namespace parjoin {
namespace plan {
struct ExecutionOptions;
}  // namespace plan

namespace serve {

// Parses the ENTIRE text as one value of the target type. Rejects empty
// input, surrounding whitespace, trailing garbage ("8x"), values outside
// the type's range, and non-finite doubles ("nan", "inf"). Error messages
// quote the offending text.
StatusOr<std::int64_t> ParseInt64Text(const std::string& text);
StatusOr<std::uint64_t> ParseUint64Text(const std::string& text);
StatusOr<double> ParseDoubleText(const std::string& text);

// True when `arg` is "--<name>=<value>"; *value receives <value> (possibly
// empty). False otherwise, leaving *value untouched.
bool MatchFlag(const std::string& arg, const std::string& name,
               std::string* value);

// Convenience wrappers that contextualize the parse error with the flag
// name ("--faults needs an unsigned integer, got 'abc'").
StatusOr<std::int64_t> ParseInt64Flag(const std::string& flag,
                                      const std::string& value);
StatusOr<std::uint64_t> ParseUint64Flag(const std::string& flag,
                                        const std::string& value);
StatusOr<double> ParseDoubleFlag(const std::string& flag,
                                 const std::string& value);

// Observability files named by the shared flags; empty = off.
struct ObsFlags {
  std::string trace_out;
  std::string profile;
  std::string calibration;
};

// Consumes `arg` when it is one of the flags both binaries accept:
//   --faults=<seed>  --checkpoint-interval=<r>  --resume
//   --straggle-threshold=<f>  --load-budget-factor=<f>  --replan
//   --trace-out=<file>  --profile=<file>  --calibration=<file>
// The resilience flags set `exec`, the file flags set `obs`. Returns true
// when `arg` was consumed and false when it is not a shared flag. A
// malformed value is InvalidArgument whose message is the text to print
// after "error: " (the binaries then exit 2 with usage).
StatusOr<bool> ParseSharedFlag(const std::string& arg,
                               plan::ExecutionOptions* exec, ObsFlags* obs);

}  // namespace serve
}  // namespace parjoin

#endif  // PARJOIN_SERVE_FLAGS_H_
