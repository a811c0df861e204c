// The observability layer's two contracts (src/parjoin/obs/):
//  * attaching a TraceRecorder / profile sink NEVER perturbs execution —
//    outputs, charged loads, and rounds stay bit-identical with tracing
//    on vs. off, at any thread count (the observer seam is read-only);
//  * the persisted artifacts round-trip exactly — trace JSONL through
//    ParseTraceJsonl, profile stores through ToJson/FromJson (with an
//    associative, empty-identity Merge), calibration tables through the
//    calibration file — and the fitted factors are the run-weighted
//    geometric mean of measured/predicted, applied by the planner.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "parjoin/common/parallel_for.h"
#include "parjoin/mpc/cluster.h"
#include "parjoin/obs/json_util.h"
#include "parjoin/obs/metrics.h"
#include "parjoin/obs/profile.h"
#include "parjoin/obs/trace.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/plan/executor.h"
#include "parjoin/semiring/semirings.h"
#include "parjoin/workload/generators.h"

namespace parjoin {
namespace {

using S = CountingSemiring;

// Restores the default thread count when a test exits.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { SetParallelForThreads(0); }
};

struct RunOutcome {
  std::vector<std::vector<Tuple<S>>> parts;
  mpc::Cluster::Stats stats;
};

// Plans and runs a matmul-blocks instance, optionally traced and under
// the resilience protocol (faults exercise the recovery event sites).
RunOutcome RunPlanned(int threads, obs::TraceRecorder* trace,
                      bool resilient) {
  SetParallelForThreads(threads);
  MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(2000, 4096, 4, 3);
  mpc::Cluster cluster(8, 11);
  if (trace != nullptr) cluster.SetObserver(trace);
  TreeInstance<S> instance = GenMatMulBlocks<S>(cluster, cfg);
  plan::ExecutionOptions exec;
  if (resilient) {
    exec.faults.enabled = true;
    exec.faults.seed = 5;
    exec.checkpoint_interval = 2;
  }
  auto exec_result = plan::PlanAndRun(cluster, std::move(instance),
                                      plan::PlannerOptions{}, exec);
  RunOutcome outcome;
  outcome.parts = exec_result.result.data.parts();
  outcome.stats = exec_result.plan.execution_stats;
  return outcome;
}

void ExpectSameOutcome(const RunOutcome& got, const RunOutcome& want) {
  ASSERT_EQ(got.parts.size(), want.parts.size());
  for (size_t s = 0; s < got.parts.size(); ++s) {
    ASSERT_EQ(got.parts[s].size(), want.parts[s].size()) << "part " << s;
    for (size_t i = 0; i < got.parts[s].size(); ++i) {
      EXPECT_TRUE(got.parts[s][i].row == want.parts[s][i].row)
          << "part " << s << " #" << i;
      EXPECT_EQ(got.parts[s][i].w, want.parts[s][i].w)
          << "part " << s << " #" << i;
    }
  }
  EXPECT_EQ(got.stats.rounds, want.stats.rounds);
  EXPECT_EQ(got.stats.max_load, want.stats.max_load);
  EXPECT_EQ(got.stats.total_comm, want.stats.total_comm);
  EXPECT_EQ(got.stats.critical_path, want.stats.critical_path);
  EXPECT_EQ(got.stats.recovery_comm, want.stats.recovery_comm);
}

TEST(TraceTest, TracingNeverPerturbsExecution) {
  ThreadOverrideGuard guard;
  const RunOutcome baseline = RunPlanned(1, nullptr, /*resilient=*/false);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::TraceRecorder trace("obs_test");
    const RunOutcome traced =
        RunPlanned(threads, &trace, /*resilient=*/false);
    ExpectSameOutcome(traced, baseline);
    EXPECT_FALSE(trace.rounds().empty());
    const RunOutcome untraced =
        RunPlanned(threads, nullptr, /*resilient=*/false);
    ExpectSameOutcome(untraced, baseline);
  }
}

TEST(TraceTest, TracingNeverPerturbsRecovery) {
  ThreadOverrideGuard guard;
  const RunOutcome baseline = RunPlanned(1, nullptr, /*resilient=*/true);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::TraceRecorder trace("obs_test");
    const RunOutcome traced =
        RunPlanned(threads, &trace, /*resilient=*/true);
    ExpectSameOutcome(traced, baseline);
    // The resilience protocol must show up in the trace: checkpoint
    // replication rounds are flagged as recovery traffic.
    bool saw_recovery_round = false;
    for (const obs::TraceRound& r : trace.rounds()) {
      saw_recovery_round = saw_recovery_round || r.recovery;
    }
    EXPECT_TRUE(saw_recovery_round);
    EXPECT_FALSE(trace.events().empty());
  }
}

TEST(TraceTest, JsonlRoundTripsExactly) {
  ThreadOverrideGuard guard;
  obs::TraceRecorder trace("roundtrip");
  trace.Annotate("p", "8");
  trace.Annotate("query", "matmul blocks");
  RunPlanned(1, &trace, /*resilient=*/true);
  ASSERT_FALSE(trace.rounds().empty());
  ASSERT_FALSE(trace.events().empty());

  auto parsed = obs::ParseTraceJsonl(trace.ToJsonl());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->label, "roundtrip");
  EXPECT_EQ(parsed->annotations.at("p"), "8");
  EXPECT_EQ(parsed->annotations.at("query"), "matmul blocks");
  ASSERT_EQ(parsed->rounds.size(), trace.rounds().size());
  for (size_t i = 0; i < trace.rounds().size(); ++i) {
    const obs::TraceRound& want = trace.rounds()[i];
    const obs::TraceRound& got = parsed->rounds[i];
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.scope, want.scope);
    EXPECT_EQ(got.max_load, want.max_load);
    EXPECT_EQ(got.tuples, want.tuples);
    EXPECT_EQ(got.recovery, want.recovery);
    EXPECT_EQ(got.straggle, want.straggle);
    EXPECT_EQ(got.resumed, want.resumed);
    EXPECT_EQ(got.wall_ms, want.wall_ms);  // shortest-round-trip doubles
  }
  ASSERT_EQ(parsed->events.size(), trace.events().size());
  for (size_t i = 0; i < trace.events().size(); ++i) {
    const obs::TraceEvent& want = trace.events()[i];
    const obs::TraceEvent& got = parsed->events[i];
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.detail, want.detail);
    EXPECT_EQ(got.server, want.server);
    EXPECT_EQ(got.factor, want.factor);
    EXPECT_EQ(got.moved, want.moved);
    EXPECT_EQ(got.wall_ms, want.wall_ms);
  }
  // Scope attribution: the executed primitives label their rounds.
  bool saw_scoped_round = false;
  for (const obs::TraceRound& r : parsed->rounds) {
    saw_scoped_round = saw_scoped_round || !r.scope.empty();
  }
  EXPECT_TRUE(saw_scoped_round);
}

TEST(TraceTest, ParseRejectsMalformedTraces) {
  EXPECT_FALSE(obs::ParseTraceJsonl("").ok());
  EXPECT_FALSE(obs::ParseTraceJsonl("not json\n").ok());
  EXPECT_FALSE(obs::ParseTraceJsonl(
                   "{\"type\":\"meta\",\"schema\":\"v0\",\"label\":\"x\"}\n")
                   .ok());
  const Status bad_line =
      obs::ParseTraceJsonl(
          "{\"type\":\"meta\",\"schema\":\"parjoin-trace-v1\","
          "\"label\":\"x\"}\n"
          "{\"type\":\"round\"}\n")
          .status();
  EXPECT_FALSE(bad_line.ok());
  EXPECT_NE(bad_line.message().find("line 2"), std::string::npos)
      << bad_line;

  // seq, round and server are ints: a wider value is a typed error, not a
  // silent wrap.
  auto trace_with_round = [](const std::string& round) {
    return obs::ParseTraceJsonl(
        "{\"type\":\"meta\",\"schema\":\"parjoin-trace-v1\","
        "\"label\":\"x\"}\n"
        "{\"type\":\"round\",\"seq\":0,\"round\":" +
        round +
        ",\"scope\":\"\",\"max_load\":1,\"tuples\":1,"
        "\"recovery\":false,\"straggle\":1,\"wall_ms\":0}\n");
  };
  ASSERT_TRUE(trace_with_round("3").ok()) << trace_with_round("3").status();
  for (const char* round : {"3000000000", "1e30"}) {
    const Status st = trace_with_round(round).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << round << ": " << st;
    EXPECT_NE(st.message().find("'round'"), std::string::npos) << st;
  }
}

plan::ExecutionRecord MakeRecord(plan::Algorithm a, QueryShape shape,
                                 double predicted, std::int64_t measured) {
  plan::ExecutionRecord rec;
  rec.algorithm = a;
  rec.shape = shape;
  rec.p = 4;
  rec.input_size = 1024;
  rec.predicted_load = predicted;
  rec.measured_load = measured;
  rec.wall_ms = 1.5;
  return rec;
}

TEST(ProfileTest, MergeIsAssociativeWithEmptyIdentity) {
  obs::ProfileStore a;
  a.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                               QueryShape::kMatMul, 10, 20));
  obs::ProfileStore b;
  b.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                               QueryShape::kMatMul, 10, 80));
  obs::ProfileStore c;
  c.RecordExecution(MakeRecord(plan::Algorithm::kYannakakis,
                               QueryShape::kTree, 100, 50));

  obs::ProfileStore ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  obs::ProfileStore a_bc = b;
  a_bc.Merge(c);
  a_bc.Merge(a);  // also checks commutativity
  EXPECT_TRUE(ab_c == a_bc);
  EXPECT_EQ(ab_c.total_runs(), 3);
  EXPECT_EQ(ab_c.cells().size(), 2u);

  obs::ProfileStore with_empty = ab_c;
  with_empty.Merge(obs::ProfileStore{});
  EXPECT_TRUE(with_empty == ab_c);
}

TEST(ProfileTest, JsonRoundTripsExactlyAndFileMergeIsStable) {
  obs::ProfileStore store;
  store.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                                   QueryShape::kMatMul, 10.25, 20));
  store.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                                   QueryShape::kMatMul, 10.25, 80));
  store.RecordExecution(MakeRecord(plan::Algorithm::kLineTheorem4,
                                   QueryShape::kLine, 7, 7));

  auto parsed = obs::ProfileStore::FromJson(store.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(*parsed == store);
  // Serializing the parse-back reproduces the bytes: save/load/save across
  // runs cannot drift.
  EXPECT_EQ(parsed->ToJson(), store.ToJson());

  const std::string path =
      ::testing::TempDir() + "/obs_test_profile.json";
  ASSERT_TRUE(store.SaveFile(path).ok());
  auto loaded = obs::ProfileStore::LoadOrEmpty(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(*loaded == store);
}

// Replaces the first occurrence of `from` in `text` (which must occur).
std::string ReplaceOnce(std::string text, const std::string& from,
                        const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from << " not in " << text;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

TEST(ProfileTest, LoadOrEmptyToleratesOnlyMissingFiles) {
  auto missing = obs::ProfileStore::LoadOrEmpty(
      ::testing::TempDir() + "/obs_test_does_not_exist.json");
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_TRUE(missing->empty());

  const std::string path = ::testing::TempDir() + "/obs_test_garbage.json";
  WriteFile(path, "not a profile\n");
  EXPECT_FALSE(obs::ProfileStore::LoadOrEmpty(path).ok());
}

TEST(ProfileTest, OutOfRangeIntegersAreTypedErrors) {
  obs::ProfileStore store;
  store.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                                   QueryShape::kMatMul, 10, 20));
  const std::string json = store.ToJson();
  ASSERT_TRUE(obs::ProfileStore::FromJson(json).ok());

  // p is narrowed to int: 3000000000 must not wrap to a negative key.
  const std::string path = ::testing::TempDir() + "/obs_test_wide_p.json";
  WriteFile(path, ReplaceOnce(json, "\"p\":4,", "\"p\":3000000000,"));
  const Status wide_p = obs::ProfileStore::LoadOrEmpty(path).status();
  EXPECT_EQ(wide_p.code(), StatusCode::kInvalidArgument) << wide_p;
  EXPECT_NE(wide_p.message().find("'p'"), std::string::npos) << wide_p;

  for (const char* runs : {"1e30", "-1e30", "9.3e18"}) {
    const Status st = obs::ProfileStore::FromJson(
                          ReplaceOnce(json, "\"runs\":1,",
                                      std::string("\"runs\":") + runs + ","))
                          .status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << runs << ": " << st;
  }

  // Two cells of 2^52 + 1 runs: each is under the 2^53 cap, their sum is
  // over it, so the second cell (line 3) trips the check.
  obs::ProfileStore two_cells = store;
  two_cells.RecordExecution(MakeRecord(plan::Algorithm::kYannakakis,
                                       QueryShape::kTree, 10, 20));
  std::string wide_runs = two_cells.ToJson();
  for (int cell = 0; cell < 2; ++cell) {
    wide_runs = ReplaceOnce(wide_runs, "\"runs\":1,",
                            "\"runs\":4503599627370497,");
  }
  const Status total = obs::ProfileStore::FromJson(wide_runs).status();
  EXPECT_EQ(total.code(), StatusCode::kInvalidArgument) << total;
  EXPECT_NE(total.message().find("profile line 3: runs total exceeds"),
            std::string::npos)
      << total;

  plan::CalibrationTable table;
  table.SetDefault(plan::Algorithm::kMatMulOutputSensitive, 2.5, 12);
  const std::string calib_path =
      ::testing::TempDir() + "/obs_test_wide_calibration.json";
  ASSERT_TRUE(obs::SaveCalibrationFile(table, calib_path).ok());
  std::ostringstream calib_text;
  calib_text << std::ifstream(calib_path).rdbuf();
  WriteFile(calib_path, ReplaceOnce(calib_text.str(), "\"runs\":12",
                                    "\"runs\":1e30"));
  const Status calib = obs::LoadCalibrationFile(calib_path).status();
  EXPECT_EQ(calib.code(), StatusCode::kInvalidArgument) << calib;
}

TEST(ProfileTest, DropsSamplesWithoutALearnableRatio) {
  obs::ProfileStore store;
  store.RecordExecution(MakeRecord(plan::Algorithm::kYannakakis,
                                   QueryShape::kTree, 0, 20));
  store.RecordExecution(MakeRecord(plan::Algorithm::kYannakakis,
                                   QueryShape::kTree, 10, 0));
  EXPECT_TRUE(store.empty());
}

TEST(CalibrationTest, FitIsTheGeometricMeanOfRatios) {
  obs::ProfileStore store;
  // Ratios 2 and 8 for the same cell: geometric mean 4.
  store.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                                   QueryShape::kMatMul, 10, 20));
  store.RecordExecution(MakeRecord(plan::Algorithm::kMatMulWorstCase,
                                   QueryShape::kMatMul, 10, 80));
  const plan::CalibrationTable table = obs::FitCalibration(store);
  EXPECT_NEAR(table.Factor(plan::Algorithm::kMatMulWorstCase,
                           QueryShape::kMatMul),
              4.0, 1e-12);
  // The any-shape default is fitted from the same runs.
  EXPECT_NEAR(table.Factor(plan::Algorithm::kMatMulWorstCase,
                           QueryShape::kLine),
              4.0, 1e-12);
  // Unfitted algorithms keep the constant-1 prediction.
  EXPECT_EQ(table.Factor(plan::Algorithm::kYannakakis, QueryShape::kTree),
            1.0);
}

TEST(CalibrationTest, ShapeSpecificEntriesWinOverDefaults) {
  plan::CalibrationTable table;
  table.SetDefault(plan::Algorithm::kYannakakis, 2.0, 4);
  table.Set(plan::Algorithm::kYannakakis, QueryShape::kStar, 3.0, 2);
  EXPECT_EQ(table.Factor(plan::Algorithm::kYannakakis, QueryShape::kStar),
            3.0);
  EXPECT_EQ(table.Factor(plan::Algorithm::kYannakakis, QueryShape::kTree),
            2.0);
  EXPECT_EQ(table.Factor(plan::Algorithm::kHyperCube, QueryShape::kTree),
            1.0);
  // Upsert replaces in place.
  table.Set(plan::Algorithm::kYannakakis, QueryShape::kStar, 5.0, 6);
  EXPECT_EQ(table.Factor(plan::Algorithm::kYannakakis, QueryShape::kStar),
            5.0);
  EXPECT_EQ(table.entries().size(), 2u);
}

TEST(CalibrationTest, CalibrationFileRoundTrips) {
  plan::CalibrationTable table;
  table.SetDefault(plan::Algorithm::kMatMulOutputSensitive, 2.5, 12);
  table.Set(plan::Algorithm::kMatMulOutputSensitive, QueryShape::kMatMul,
            1.75, 6);
  table.Set(plan::Algorithm::kLineTheorem4, QueryShape::kLine, 0.5, 3);

  const std::string path =
      ::testing::TempDir() + "/obs_test_calibration.json";
  ASSERT_TRUE(obs::SaveCalibrationFile(table, path).ok());
  auto loaded = obs::LoadCalibrationFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->entries().size(), table.entries().size());
  for (size_t i = 0; i < table.entries().size(); ++i) {
    const auto& want = table.entries()[i];
    const auto& got = loaded->entries()[i];
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.has_shape, want.has_shape);
    if (want.has_shape) {
      EXPECT_EQ(got.shape, want.shape);
    }
    EXPECT_EQ(got.factor, want.factor);
    EXPECT_EQ(got.runs, want.runs);
  }
}

TEST(CalibrationTest, NameLookupsRoundTripAndRejectUnknowns) {
  for (plan::Algorithm a :
       {plan::Algorithm::kYannakakis, plan::Algorithm::kHyperCube,
        plan::Algorithm::kMatMulWorstCase,
        plan::Algorithm::kMatMulOutputSensitive,
        plan::Algorithm::kLineTheorem4, plan::Algorithm::kStarTheorem5,
        plan::Algorithm::kStarLikeLemma7, plan::Algorithm::kTreeTheorem6,
        plan::Algorithm::kSingleRelation}) {
    auto back = plan::AlgorithmFromName(plan::AlgorithmName(a));
    ASSERT_TRUE(back.ok()) << plan::AlgorithmName(a);
    EXPECT_EQ(*back, a);
  }
  EXPECT_FALSE(plan::AlgorithmFromName("no_such_algorithm").ok());
  for (QueryShape s :
       {QueryShape::kSingleEdge, QueryShape::kMatMul, QueryShape::kLine,
        QueryShape::kStar, QueryShape::kStarLike, QueryShape::kFreeConnex,
        QueryShape::kTree}) {
    auto back = QueryShapeFromName(QueryShapeName(s));
    ASSERT_TRUE(back.ok()) << QueryShapeName(s);
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(QueryShapeFromName("no_such_shape").ok());
}

TEST(CalibrationTest, FactorsReRankCandidates) {
  plan::InstanceStats stats;
  stats.p = 16;
  stats.num_relations = 2;
  stats.n1 = 10000;
  stats.n2 = 10000;
  stats.total_input = 20000;
  // At the unit-constant crossover OUT* = sqrt(N1*N2*p) the two matmul
  // strategies tie, so any factor > 1 on the unit winner flips the order.
  stats.out_estimate = 40000;
  stats.join_estimate = 400000;
  stats.out_is_estimated = true;

  const std::vector<plan::Candidate> unit =
      plan::ScoreCandidates(QueryShape::kMatMul, stats, nullptr);
  ASSERT_GE(unit.size(), 2u);
  EXPECT_EQ(unit.front().calib_factor, 1.0);

  plan::CalibrationTable table;
  table.Set(unit.front().algorithm, QueryShape::kMatMul, 8.0, 10);
  const std::vector<plan::Candidate> calibrated =
      plan::ScoreCandidates(QueryShape::kMatMul, stats, &table);
  EXPECT_NE(calibrated.front().algorithm, unit.front().algorithm);
  const plan::Candidate* moved = nullptr;
  for (const plan::Candidate& c : calibrated) {
    if (c.algorithm == unit.front().algorithm) moved = &c;
  }
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->calib_factor, 8.0);
  EXPECT_NEAR(moved->predicted_load, 8.0 * unit.front().predicted_load,
              1e-9 * unit.front().predicted_load);
}

TEST(CalibrationTest, ProfileRecordsDecalibratedPredictions) {
  // Executing under a calibrated planner must store constant-1 ratios:
  // fitted factors never feed their own fit.
  MatMulBlockConfig cfg = MatMulBlockConfig::FromTargets(2000, 4096, 4, 3);
  plan::CalibrationTable table;
  for (plan::Algorithm a :
       {plan::Algorithm::kYannakakis, plan::Algorithm::kHyperCube,
        plan::Algorithm::kMatMulWorstCase,
        plan::Algorithm::kMatMulOutputSensitive}) {
    table.SetDefault(a, 3.0, 5);
  }
  obs::ProfileStore profile;
  plan::PlannerOptions planner;
  planner.calibration = &table;
  plan::ExecutionOptions exec;
  exec.profile = &profile;
  mpc::Cluster cluster(8, 11);
  TreeInstance<S> instance = GenMatMulBlocks<S>(cluster, cfg);
  auto run = plan::PlanAndRun(cluster, std::move(instance), planner, exec);
  EXPECT_TRUE(run.plan.calibrated);

  ASSERT_EQ(profile.cells().size(), 1u);
  const auto& [key, cell] = *profile.cells().begin();
  EXPECT_EQ(key.algorithm, run.plan.executed);
  EXPECT_EQ(cell.runs, 1);
  const double uncalibrated = plan::PredictLoad(
      run.plan.executed, run.plan.shape, run.plan.stats, nullptr);
  EXPECT_NEAR(cell.sum_predicted, uncalibrated, 1e-9 * uncalibrated);
  EXPECT_EQ(cell.sum_measured,
            static_cast<double>(run.plan.measured_load));
}

TEST(MetricsTest, CountersGaugesAndHistograms) {
  obs::MetricsRegistry registry;
  obs::Counter* hits = registry.GetCounter("hits");
  EXPECT_EQ(hits, registry.GetCounter("hits"));  // get-or-create
  hits->Increment();
  hits->Increment(4);
  EXPECT_EQ(hits->Value(), 5);

  obs::Gauge* depth = registry.GetGauge("depth");
  depth->Set(3.5);
  EXPECT_EQ(depth->Value(), 3.5);

  obs::Histogram* latency =
      registry.GetHistogram("latency_ms", {1, 2, 4, 8});
  EXPECT_EQ(latency->Count(), 0);
  EXPECT_EQ(latency->Quantile(0.5), 0);  // empty
  for (double v : {0.5, 1.5, 3.0, 6.0, 20.0}) latency->Observe(v);
  EXPECT_EQ(latency->Count(), 5);
  EXPECT_EQ(latency->Sum(), 31.0);
  EXPECT_EQ(latency->Min(), 0.5);
  EXPECT_EQ(latency->Max(), 20.0);
  // Quantiles are bucket-interpolated but always clamped to [min, max]
  // and monotone in q.
  const double p50 = latency->Quantile(0.5);
  const double p99 = latency->Quantile(0.99);
  EXPECT_GE(p50, latency->Min());
  EXPECT_LE(p50, latency->Max());
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, latency->Max());

  const std::string json = registry.ToJson();
  auto parsed_counters_pos = json.find("\"counters\"");
  auto parsed_gauges_pos = json.find("\"gauges\"");
  auto parsed_hist_pos = json.find("\"histograms\"");
  EXPECT_NE(parsed_counters_pos, std::string::npos);
  EXPECT_NE(parsed_gauges_pos, std::string::npos);
  EXPECT_NE(parsed_hist_pos, std::string::npos);
  EXPECT_NE(json.find("\"hits\":5"), std::string::npos) << json;
}

TEST(JsonUtilTest, FlatObjectsRoundTrip) {
  auto parsed = obs::ParseFlatJsonObject(
      "{\"s\":\"a\\\"b\\\\c\",\"n\":-2.5,\"i\":7,\"b\":true}", "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto s = obs::GetString(*parsed, "s", "test");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "a\"b\\c");
  auto n = obs::GetNumber(*parsed, "n", "test");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, -2.5);
  auto i = obs::GetInt(*parsed, "i", "test");
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, 7);
  auto b = obs::GetBool(*parsed, "b", "test");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*b);
  EXPECT_FALSE(obs::GetString(*parsed, "missing", "test").ok());
  EXPECT_FALSE(obs::GetString(*parsed, "n", "test").ok());  // wrong type

  EXPECT_FALSE(obs::ParseFlatJsonObject("{\"a\":1", "t").ok());
  EXPECT_FALSE(obs::ParseFlatJsonObject("{\"a\":{}}", "t").ok());  // nested
  EXPECT_FALSE(obs::ParseFlatJsonObject("{\"a\":1,\"a\":2}", "t").ok());
  EXPECT_FALSE(obs::ParseFlatJsonObject("{\"a\":1} x", "t").ok());
}

TEST(JsonUtilTest, OutOfRangeIntegersAreTypedErrors) {
  // The cast to int64 is checked first: none of these may reach it.
  for (const char* text : {"1e30", "-1e30", "9.3e18", "9223372036854775808"}) {
    auto parsed = obs::ParseFlatJsonObject(
        std::string("{\"runs\":") + text + "}", "t");
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const Status st = obs::GetInt(*parsed, "runs", "t").status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << text << ": " << st;
    EXPECT_NE(st.message().find("out of range"), std::string::npos) << st;
  }
  auto edges = obs::ParseFlatJsonObject(
      "{\"lo\":-9223372036854775808,\"p\":3000000000,\"q\":-7}", "t");
  ASSERT_TRUE(edges.ok()) << edges.status();
  auto lo = obs::GetInt(*edges, "lo", "t");
  ASSERT_TRUE(lo.ok()) << lo.status();
  EXPECT_EQ(*lo, std::numeric_limits<std::int64_t>::min());
  auto p64 = obs::GetInt(*edges, "p", "t");
  ASSERT_TRUE(p64.ok()) << p64.status();
  EXPECT_EQ(*p64, 3000000000);
  const Status p32 = obs::GetInt32(*edges, "p", "t").status();
  EXPECT_EQ(p32.code(), StatusCode::kInvalidArgument) << p32;
  auto q = obs::GetInt32(*edges, "q", "t");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(*q, -7);
}

TEST(JsonUtilTest, DoublesPrintShortestRoundTrip) {
  for (double v : {0.0, 1.0, -2.5, 0.1, 1.0 / 3.0, 1e-9, 12345678.875}) {
    const std::string text = obs::JsonDouble(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
}

}  // namespace
}  // namespace parjoin
