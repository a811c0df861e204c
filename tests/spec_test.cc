// Negative-path coverage for the query-ingress layer: the shared spec /
// workload parser (serve/spec) and the checked numeric flag helpers
// (serve/flags). Every malformed directive must surface as a typed,
// line-numbered Status — the pre-fix parser accepted `output x` as an
// EMPTY output list, `result` with no path, and `p 8 junk`, and the
// pre-fix flag parsing turned `--faults=abc` into 0.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "parjoin/plan/executor.h"
#include "parjoin/serve/flags.h"
#include "parjoin/serve/spec.h"

namespace parjoin {
namespace serve {
namespace {

// Asserts `status` is InvalidArgument and its message mentions both the
// 1-based `line` (as ":<line>: ") and the `needle`.
void ExpectLineError(const Status& status, int line,
                     const std::string& needle) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  const std::string msg = status.message();
  EXPECT_NE(msg.find(":" + std::to_string(line) + ": "), std::string::npos)
      << "expected line " << line << " in: " << msg;
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "expected '" << needle << "' in: " << msg;
}

// --- standalone query specs -------------------------------------------------

TEST(QuerySpecParse, AcceptsFullSpec) {
  const std::string text =
      "# matmul over two csvs\n"
      "p 8\n"
      "edge 0 1 a.csv\n"
      "edge 1 2 @edges\n"
      "output 0 2\n"
      "result out.csv\n";
  auto spec = ParseQuerySpecText(text, "spec");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->p, 8);
  ASSERT_EQ(spec->edges.size(), 2u);
  EXPECT_EQ(spec->edges[0].u, 0);
  EXPECT_EQ(spec->edges[0].v, 1);
  EXPECT_EQ(spec->edges[0].source, "a.csv");
  EXPECT_FALSE(spec->edges[0].IsRef());
  EXPECT_TRUE(spec->edges[1].IsRef());
  EXPECT_EQ(spec->edges[1].RefName(), "edges");
  EXPECT_EQ(spec->outputs, (std::vector<AttrId>{0, 2}));
  EXPECT_EQ(spec->result_path, "out.csv");
}

TEST(QuerySpecParse, AcceptsCrlfAndBlankLines) {
  auto spec = ParseQuerySpecText("edge 0 1 a.csv\r\n\r\noutput 0\r\n", "s");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->edges.size(), 1u);
  EXPECT_EQ(spec->outputs, (std::vector<AttrId>{0}));
}

// THE original silent failure: `output x` used to parse as an empty
// output list (strtol returning 0 consumed nothing and the loop exited).
TEST(QuerySpecParse, RejectsNonNumericOutputAttr) {
  auto spec =
      ParseQuerySpecText("edge 0 1 a.csv\noutput x\n", "spec");
  ExpectLineError(spec.status(), 2, "'output'");
  ExpectLineError(spec.status(), 2, "'x' is not a number");
}

TEST(QuerySpecParse, RejectsBareOutput) {
  auto spec = ParseQuerySpecText("edge 0 1 a.csv\noutput\n", "spec");
  ExpectLineError(spec.status(), 2, "'output' needs at least one");
}

TEST(QuerySpecParse, RejectsResultWithMissingPath) {
  auto spec =
      ParseQuerySpecText("edge 0 1 a.csv\noutput 0\nresult\n", "spec");
  ExpectLineError(spec.status(), 3, "'result' needs exactly one path");
}

TEST(QuerySpecParse, RejectsResultWithTrailingGarbage) {
  auto spec = ParseQuerySpecText("edge 0 1 a.csv\nresult a b\n", "spec");
  ExpectLineError(spec.status(), 2, "'result' needs exactly one path");
}

TEST(QuerySpecParse, RejectsPWithTrailingGarbage) {
  auto spec = ParseQuerySpecText("p 8 junk\nedge 0 1 a.csv\n", "spec");
  ExpectLineError(spec.status(), 1, "'p' needs exactly one server count");
}

TEST(QuerySpecParse, RejectsNonNumericOrNonPositiveP) {
  ExpectLineError(ParseQuerySpecText("p abc\n", "s").status(), 1,
                  "'p' needs a positive server count, got 'abc'");
  ExpectLineError(ParseQuerySpecText("p 0\n", "s").status(), 1,
                  "'p' needs a positive server count, got '0'");
  ExpectLineError(ParseQuerySpecText("p -4\n", "s").status(), 1,
                  "'p' needs a positive server count, got '-4'");
}

TEST(QuerySpecParse, RejectsEdgeArity) {
  ExpectLineError(ParseQuerySpecText("edge\n", "s").status(), 1,
                  "'edge' needs exactly");
  ExpectLineError(ParseQuerySpecText("edge 0 1\n", "s").status(), 1,
                  "got 2 token(s)");
  ExpectLineError(
      ParseQuerySpecText("edge 0 1 a.csv extra\n", "s").status(), 1,
      "got 4 token(s)");
}

TEST(QuerySpecParse, RejectsEdgeAttrGarbage) {
  ExpectLineError(ParseQuerySpecText("edge x 1 a.csv\n", "s").status(), 1,
                  "'x' is not a number");
  ExpectLineError(ParseQuerySpecText("edge 0 -1 a.csv\n", "s").status(), 1,
                  "-1 out of range");
  ExpectLineError(
      ParseQuerySpecText("edge 0 99999999999 a.csv\n", "s").status(), 1,
      "out of range");
}

TEST(QuerySpecParse, RejectsEmptyRelationReference) {
  ExpectLineError(ParseQuerySpecText("edge 0 1 @\n", "s").status(), 1,
                  "'@' relation reference has no name");
}

TEST(QuerySpecParse, RejectsUnknownDirective) {
  auto spec =
      ParseQuerySpecText("edge 0 1 a.csv\nfrobnicate 1\n", "spec");
  ExpectLineError(spec.status(), 2, "unknown directive 'frobnicate'");
}

TEST(QuerySpecParse, RejectsSpecWithNoEdges) {
  auto spec = ParseQuerySpecText("# only a comment\np 4\n", "spec");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("no edges"), std::string::npos);
}

TEST(QuerySpecParse, LineNumbersCountCommentsAndBlanks) {
  // The bad directive sits on line 5; comments/blank lines still count.
  auto spec = ParseQuerySpecText(
      "# header\n\nedge 0 1 a.csv\n# note\noutput y\n", "spec");
  ExpectLineError(spec.status(), 5, "'y' is not a number");
}

TEST(QuerySpecParse, MissingFileIsNotFound) {
  auto spec = ParseQuerySpecFile("/nonexistent/query.spec");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
}

// --- workload files ---------------------------------------------------------

constexpr char kGoodWorkload[] =
    "p 4\n"
    "register ab a.csv\n"
    "register bc b.csv\n"
    "query matmul\n"
    "  edge 0 1 @ab\n"
    "  edge 1 2 @bc\n"
    "  output 0 2\n"
    "  repeat 3\n"
    "end\n"
    "query\n"
    "  edge 0 1 @ab\n"
    "  output 0\n"
    "end\n";

TEST(WorkloadParse, AcceptsFullWorkload) {
  auto w = ParseWorkloadText(kGoodWorkload, "w");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->p, 4);
  ASSERT_EQ(w->relations.size(), 2u);
  EXPECT_EQ(w->relations[0].name, "ab");
  EXPECT_EQ(w->relations[0].path, "a.csv");
  ASSERT_EQ(w->queries.size(), 2u);
  EXPECT_EQ(w->queries[0].label, "matmul");
  EXPECT_EQ(w->queries[0].repeat, 3);
  EXPECT_EQ(w->queries[1].label, "q1");  // default label by block index
  EXPECT_EQ(w->queries[1].repeat, 1);
  // The header p propagates into every query spec.
  for (const auto& q : w->queries) EXPECT_EQ(q.spec.p, 4);
}

TEST(WorkloadParse, RejectsRegisterArity) {
  ExpectLineError(ParseWorkloadText("register ab\n", "w").status(), 1,
                  "'register' needs exactly <name> <csv-path>");
}

TEST(WorkloadParse, RejectsBadRelationName) {
  ExpectLineError(ParseWorkloadText("register a/b x.csv\n", "w").status(),
                  1, "must be [A-Za-z0-9_]+");
}

TEST(WorkloadParse, RejectsDuplicateRegistration) {
  auto w = ParseWorkloadText("register ab a.csv\nregister ab b.csv\n", "w");
  ExpectLineError(w.status(), 2, "relation 'ab' registered twice");
}

TEST(WorkloadParse, RejectsUnregisteredReference) {
  auto w = ParseWorkloadText(
      "register ab a.csv\nquery\n  edge 0 1 @cd\nend\n", "w");
  ExpectLineError(w.status(), 3, "unregistered relation '@cd'");
}

TEST(WorkloadParse, RejectsReferenceRegisteredLater) {
  // Registration must precede use: ingress resolves refs in file order.
  auto w = ParseWorkloadText(
      "query\n  edge 0 1 @ab\nend\nregister ab a.csv\n", "w");
  ExpectLineError(w.status(), 2, "unregistered relation '@ab'");
}

TEST(WorkloadParse, RejectsPInsideQueryBlock) {
  auto w = ParseWorkloadText(
      "register ab a.csv\nquery\n  p 8\nend\n", "w");
  ExpectLineError(w.status(), 3, "'p' inside a query block");
}

TEST(WorkloadParse, RejectsBlockDirectiveOutsideBlock) {
  ExpectLineError(ParseWorkloadText("edge 0 1 a.csv\n", "w").status(), 1,
                  "'edge' outside a query block");
  ExpectLineError(ParseWorkloadText("end\n", "w").status(), 1,
                  "'end' outside a query block");
}

TEST(WorkloadParse, RejectsUnclosedBlockAtItsOpeningLine) {
  auto w = ParseWorkloadText(
      "register ab a.csv\nquery lost\n  edge 0 1 @ab\n", "w");
  ExpectLineError(w.status(), 2, "'lost' is never closed with 'end'");
}

TEST(WorkloadParse, RejectsEndWithArguments) {
  auto w = ParseWorkloadText(
      "register ab a.csv\nquery\n  edge 0 1 @ab\nend now\n", "w");
  ExpectLineError(w.status(), 4, "'end' takes no arguments");
}

TEST(WorkloadParse, RejectsEmptyQueryBlock) {
  auto w = ParseWorkloadText("query empty\nend\n", "w");
  ExpectLineError(w.status(), 2, "query block 'empty' has no edges");
}

TEST(WorkloadParse, RejectsRepeatOutOfRange) {
  const std::string head = "register ab a.csv\nquery\n  edge 0 1 @ab\n";
  ExpectLineError(
      ParseWorkloadText(head + "  repeat 0\nend\n", "w").status(), 4,
      "count in [1, 1000000], got '0'");
  ExpectLineError(
      ParseWorkloadText(head + "  repeat 9000000\nend\n", "w").status(), 4,
      "count in [1, 1000000], got '9000000'");
  ExpectLineError(
      ParseWorkloadText(head + "  repeat many\nend\n", "w").status(), 4,
      "count in [1, 1000000], got 'many'");
  ExpectLineError(
      ParseWorkloadText(head + "  repeat 2 3\nend\n", "w").status(), 4,
      "'repeat' needs exactly one count");
}

TEST(WorkloadParse, RejectsQueryWithTwoLabels) {
  ExpectLineError(ParseWorkloadText("query a b\n", "w").status(), 1,
                  "'query' takes at most one label");
}

TEST(WorkloadParse, RejectsWorkloadWithNoQueries) {
  auto w = ParseWorkloadText("p 4\nregister ab a.csv\n", "w");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(w.status().message().find("no query blocks"),
            std::string::npos);
}

TEST(WorkloadParse, HeaderPAppliesToEarlierBlocks) {
  // `p` after a query block still governs that block's spec.
  auto w = ParseWorkloadText(
      "register ab a.csv\nquery\n  edge 0 1 @ab\nend\np 32\n", "w");
  ASSERT_TRUE(w.ok()) << w.status();
  EXPECT_EQ(w->queries[0].spec.p, 32);
}

// --- checked numeric flag parsing -------------------------------------------

TEST(FlagsParse, Int64AcceptsWholeTokenOnly) {
  auto ok = ParseInt64Text("42");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  auto negative = ParseInt64Text("-3");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(*negative, -3);
  EXPECT_FALSE(ParseInt64Text("").ok());
  EXPECT_FALSE(ParseInt64Text("abc").ok());
  EXPECT_FALSE(ParseInt64Text("8x").ok());    // pre-fix strtol: 8
  EXPECT_FALSE(ParseInt64Text(" 8").ok());    // no silent whitespace skip
  EXPECT_FALSE(ParseInt64Text("8 ").ok());
  EXPECT_FALSE(ParseInt64Text("99999999999999999999").ok());  // ERANGE
}

TEST(FlagsParse, Uint64RejectsSignAndGarbage) {
  auto ok = ParseUint64Text("18446744073709551615");  // UINT64_MAX
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 18446744073709551615ULL);
  // Pre-fix strtoull happily wrapped "-3" to a huge value.
  EXPECT_FALSE(ParseUint64Text("-3").ok());
  EXPECT_FALSE(ParseUint64Text("+3").ok());
  EXPECT_FALSE(ParseUint64Text("abc").ok());  // pre-fix: --faults=abc -> 0
  EXPECT_FALSE(ParseUint64Text("").ok());
  EXPECT_FALSE(ParseUint64Text("18446744073709551616").ok());  // ERANGE
}

TEST(FlagsParse, DoubleRejectsGarbageAndOverflow) {
  auto ok = ParseDoubleText("1.5");
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(*ok, 1.5);
  EXPECT_FALSE(ParseDoubleText("junk").ok());  // pre-fix strtod: 0.0
  EXPECT_FALSE(ParseDoubleText("1.5x").ok());
  EXPECT_FALSE(ParseDoubleText("").ok());
  EXPECT_FALSE(ParseDoubleText("1e999").ok());  // ERANGE
  // strtod parses these, and a NaN slips past every `<= 0` range check.
  EXPECT_FALSE(ParseDoubleText("nan").ok());
  EXPECT_FALSE(ParseDoubleText("inf").ok());
  EXPECT_FALSE(ParseDoubleText("-inf").ok());
}

TEST(FlagsParse, MatchFlagSplitsNameAndValue) {
  std::string value = "sentinel";
  EXPECT_FALSE(MatchFlag("--faults", "faults", &value));
  EXPECT_EQ(value, "sentinel");  // untouched on non-match
  EXPECT_FALSE(MatchFlag("--fault=1", "faults", &value));
  ASSERT_TRUE(MatchFlag("--faults=7", "faults", &value));
  EXPECT_EQ(value, "7");
  ASSERT_TRUE(MatchFlag("--faults=", "faults", &value));
  EXPECT_EQ(value, "");
}

TEST(FlagsParse, FlagWrappersNameTheFlagInErrors) {
  auto bad = ParseUint64Flag("faults", "abc");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("--faults needs an unsigned"),
            std::string::npos)
      << bad.status();
  auto bad_double = ParseDoubleFlag("load-budget-factor", "junk");
  ASSERT_FALSE(bad_double.ok());
  EXPECT_NE(bad_double.status().message().find("--load-budget-factor"),
            std::string::npos);
}

TEST(FlagsParse, SharedFlagsFillOptionsInArgumentOrder) {
  plan::ExecutionOptions exec;
  ObsFlags obs;
  for (const char* arg :
       {"--faults=7", "--resume", "--replan", "--straggle-threshold=2.5",
        "--load-budget-factor=1", "--trace-out=t.jsonl", "--profile=p.json",
        "--calibration=c.json"}) {
    auto consumed = ParseSharedFlag(arg, &exec, &obs);
    ASSERT_TRUE(consumed.ok()) << arg << ": " << consumed.status();
    EXPECT_TRUE(*consumed) << arg;
  }
  EXPECT_TRUE(exec.faults.enabled);
  EXPECT_EQ(exec.faults.seed, 7u);
  EXPECT_EQ(exec.checkpoint_interval, 2);  // --faults defaults it to 2
  EXPECT_TRUE(exec.resume_from_checkpoint);
  EXPECT_TRUE(exec.replan_on_budget_abort);
  EXPECT_DOUBLE_EQ(exec.straggle_threshold, 2.5);
  EXPECT_DOUBLE_EQ(exec.load_budget_factor, 1.0);
  EXPECT_EQ(obs.trace_out, "t.jsonl");
  EXPECT_EQ(obs.profile, "p.json");
  EXPECT_EQ(obs.calibration, "c.json");

  // An explicit interval after --faults wins; before it, --faults keeps it.
  ASSERT_TRUE(ParseSharedFlag("--checkpoint-interval=0", &exec, &obs).ok());
  EXPECT_EQ(exec.checkpoint_interval, 0);
  plan::ExecutionOptions ordered;
  ASSERT_TRUE(
      ParseSharedFlag("--checkpoint-interval=5", &ordered, &obs).ok());
  ASSERT_TRUE(ParseSharedFlag("--faults=1", &ordered, &obs).ok());
  EXPECT_EQ(ordered.checkpoint_interval, 5);

  // Each binary's own flags pass through unconsumed.
  for (const char* arg : {"--json", "--demo=x", "--plan-cache-capacity=5",
                          "--metrics-out=m.json", "--resume=1", "spec"}) {
    auto consumed = ParseSharedFlag(arg, &exec, &obs);
    ASSERT_TRUE(consumed.ok()) << arg;
    EXPECT_FALSE(*consumed) << arg;
  }
}

TEST(FlagsParse, SharedFlagErrorsKeepTheirText) {
  const std::pair<const char*, const char*> cases[] = {
      {"--faults=abc",
       "INVALID_ARGUMENT: --faults needs an unsigned integer: 'abc' is not "
       "an unsigned integer"},
      {"--checkpoint-interval=-3",
       "--checkpoint-interval needs an integer in [0, 1000000], got '-3'"},
      {"--straggle-threshold=0",
       "--straggle-threshold needs a number > 0, got '0'"},
      {"--straggle-threshold=nan",
       "--straggle-threshold needs a number > 0, got 'nan'"},
      {"--load-budget-factor=inf",
       "--load-budget-factor needs a number > 0, got 'inf'"},
      {"--trace-out=", "--trace-out needs a file path"},
      {"--profile=", "--profile needs a file path"},
      {"--calibration=", "--calibration needs a file path"},
  };
  for (const auto& [arg, message] : cases) {
    plan::ExecutionOptions exec;
    ObsFlags obs;
    auto consumed = ParseSharedFlag(arg, &exec, &obs);
    ASSERT_FALSE(consumed.ok()) << arg;
    EXPECT_EQ(consumed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(consumed.status().message(), message);
  }
}

}  // namespace
}  // namespace serve
}  // namespace parjoin
