// Structured round tracing: a RoundObserver implementation that records
// every charged round and fault/recovery event the cluster reports, plus
// the primitive scope stack, and renders the trail as JSONL.
//
// Schema `parjoin-trace-v1`, one flat JSON object per line:
//   {"type":"meta","schema":"parjoin-trace-v1","label":...,<annotations>}
//   {"type":"round","seq":N,"round":R,"scope":"sort/exchange",
//    "max_load":L,"tuples":T,"recovery":B,"straggle":F,"resumed":B,
//    "wall_ms":W}
//   {"type":"event","seq":N,"kind":"crash","round":R,"detail":...,
//    ["server":S,]["factor":F,]["moved":M,]"wall_ms":W}
// Event payload fields are optional and kind-dependent: "straggler"
// carries server+factor, "rebalance" carries server+factor+moved,
// "resume" carries moved (the fast-forwarded round count); other kinds
// omit all three.
// The meta line comes first; rounds and events follow in emission order
// (`seq` is the global order both share). `wall_ms` is milliseconds since
// the recorder was constructed — the only nondeterministic field, and the
// one comparisons must ignore.
//
// Contract (tests/obs_test.cc, determinism_test): attaching a recorder
// never changes outputs, charged loads, or the rng stream. The recorder
// only ever reads what the cluster already computed; wall-clock stamping
// happens here, observer-side, which is why `<chrono>` stays out of mpc/
// (tools/lint/parjoin_lint.py chrono-timing rule).

#ifndef PARJOIN_OBS_TRACE_H_
#define PARJOIN_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "parjoin/common/status.h"
#include "parjoin/common/stopwatch.h"
#include "parjoin/mpc/observer.h"

namespace parjoin {
namespace obs {

inline constexpr char kTraceSchema[] = "parjoin-trace-v1";

struct TraceRound {
  int seq = 0;  // position in the combined round+event order
  int round = 0;
  std::string scope;  // '/'-joined scope stack, "" at top level
  std::int64_t max_load = 0;
  std::int64_t tuples = 0;
  bool recovery = false;
  double straggle = 1;
  // True for rounds a resumed replay fast-forwarded over (elided from the
  // ledger; mpc::RoundRecord::resumed).
  bool resumed = false;
  double wall_ms = 0;
};

struct TraceEvent {
  int seq = 0;
  std::string kind;
  int round = 0;
  std::string detail;
  // Structured payload (mpc::EventRecord); sentinel defaults mean "not
  // carried by this kind" and are omitted from the JSONL line.
  int server = -1;
  double factor = 0;
  std::int64_t moved = -1;
  double wall_ms = 0;
};

class TraceRecorder : public mpc::RoundObserver {
 public:
  explicit TraceRecorder(std::string label = "");

  // mpc::RoundObserver (called from the charging thread only).
  void OnRound(const mpc::RoundRecord& record) override;
  void OnEventRecord(const mpc::EventRecord& event) override;
  void PushScope(const char* name) override;
  void PopScope() override;

  // Extra meta-line key/values (query label, algorithm, p, ...). Keys are
  // emitted sorted; "type"/"schema"/"label" are reserved.
  void Annotate(const std::string& key, const std::string& value);

  const std::vector<TraceRound>& rounds() const { return rounds_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  std::string ToJsonl() const;
  Status WriteFile(const std::string& path) const;

 private:
  std::string label_;
  Stopwatch since_start_;
  std::vector<const char*> scope_stack_;
  std::map<std::string, std::string> annotations_;
  std::vector<TraceRound> rounds_;
  std::vector<TraceEvent> events_;
  int next_seq_ = 0;
};

// Parsed-back form of a trace file, for round-trip tests and validation.
struct ParsedTrace {
  std::string label;
  std::map<std::string, std::string> annotations;
  std::vector<TraceRound> rounds;
  std::vector<TraceEvent> events;
};

// Parses `parjoin-trace-v1` JSONL (the exact ToJsonl output format).
// Errors carry the 1-based line number.
StatusOr<ParsedTrace> ParseTraceJsonl(const std::string& text);

}  // namespace obs
}  // namespace parjoin

#endif  // PARJOIN_OBS_TRACE_H_
