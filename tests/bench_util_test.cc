// The BENCH_parjoin.json trajectory writer (bench/bench_util.h): a
// re-run replaces exactly its own experiment's rows, keeps every other
// row byte-for-byte and in order, renders the extra columns of a row in
// the committed file's format, and reports a failed write instead of
// leaving a stale file behind silently.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"

namespace parjoin {
namespace bench {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

BenchJsonEntry Row(const std::string& experiment, const std::string& name,
                   std::int64_t max_load) {
  BenchJsonEntry e;
  e.experiment = experiment;
  e.name = name;
  e.n = 100;
  e.p = 4;
  e.threads = 1;
  e.result.wall_ms = 1.5;
  e.result.stats.max_load = max_load;
  e.result.stats.rounds = 2;
  e.result.stats.total_comm = 200;
  return e;
}

// Two committed rows of other experiments, one without the critical_path
// and recovery_comm columns (written before the ledger grew them).
const char kSeed[] =
    "{\n"
    "  \"schema\": \"parjoin-bench-v1\",\n"
    "  \"entries\": [\n"
    "    {\"experiment\": \"E10\", \"name\": \"sort/n=8/p=4/threads=1\", "
    "\"n\": 8, \"p\": 4, \"threads\": 1, \"wall_ms\": 0.125, "
    "\"max_load\": 2, \"rounds\": 1, \"total_comm\": 8},\n"
    "    {\"experiment\": \"E1\", \"name\": \"old\", \"n\": 100, \"p\": 4, "
    "\"threads\": 1, \"wall_ms\": 9.000, \"max_load\": 7, \"rounds\": 2, "
    "\"total_comm\": 200, \"critical_path\": 0, \"recovery_comm\": 0},\n"
    "    {\"experiment\": \"E5\", \"name\": \"line/baseline/p=16\", "
    "\"n\": 6144, \"p\": 16, \"threads\": 1, \"wall_ms\": 30.000, "
    "\"max_load\": 1536, \"rounds\": 39, \"total_comm\": 70145, "
    "\"critical_path\": 5145, \"recovery_comm\": 0}\n"
    "  ]\n"
    "}\n";

TEST(BenchJsonTest, KeepsOtherExperimentsVerbatimAndReplacesOwnRows) {
  const std::string path = ::testing::TempDir() + "/bench_util_test.json";
  WriteText(path, kSeed);
  const std::vector<std::string> seed = ReadLines(path);
  ASSERT_EQ(seed.size(), 8u);

  std::string error;
  ASSERT_TRUE(UpdateBenchJson(path, "E1", {Row("E1", "a", 3)}, &error))
      << error;
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 8u);
  // Rows of other experiments keep their bytes and their order; the E5
  // row only gains a comma because it is no longer the last row.
  EXPECT_EQ(lines[3], seed[3]);
  EXPECT_EQ(lines[4], seed[5] + ",");

  // Re-running the experiment replaces its rows instead of adding to them.
  ASSERT_TRUE(UpdateBenchJson(
      path, "E1", {Row("E1", "a", 5), Row("E1", "b", 6)}, &error))
      << error;
  lines = ReadLines(path);
  const std::vector<std::string> expected = {
      seed[0],
      seed[1],
      seed[2],
      seed[3],
      seed[5] + ",",
      "    {\"experiment\": \"E1\", \"name\": \"a\", \"n\": 100, \"p\": 4, "
      "\"threads\": 1, \"wall_ms\": 1.500, \"max_load\": 5, \"rounds\": 2, "
      "\"total_comm\": 200, \"critical_path\": 0, \"recovery_comm\": 0},",
      "    {\"experiment\": \"E1\", \"name\": \"b\", \"n\": 100, \"p\": 4, "
      "\"threads\": 1, \"wall_ms\": 1.500, \"max_load\": 6, \"rounds\": 2, "
      "\"total_comm\": 200, \"critical_path\": 0, \"recovery_comm\": 0}",
      "  ]",
      "}",
  };
  EXPECT_EQ(lines, expected);
}

TEST(BenchJsonTest, ExtraColumnsRenderLikeCommittedRows) {
  BenchJsonEntry e8;
  e8.experiment = "E8";
  e8.name = "calibration/out=16384/p=16";
  e8.n = 8192;
  e8.p = 16;
  e8.threads = 4;
  e8.result.wall_ms = 160.382;
  e8.result.stats.max_load = 1328;
  e8.result.stats.rounds = 26;
  e8.result.stats.total_comm = 311291;
  e8.result.stats.critical_path = 30255;
  e8.columns = {StringColumn("chosen_unit", "matmul_worst_case"),
                StringColumn("chosen_calibrated", "matmul_output_sensitive"),
                StringColumn("measured_best", "matmul_output_sensitive"),
                IntColumn("corrected", 1),
                FixedColumn("calib_factor", 0.48587, 4)};

  BenchJsonEntry e9;
  e9.experiment = "E9";
  e9.name = "matmul/resume/p=16";
  e9.n = 20000;
  e9.p = 16;
  e9.threads = 1;
  e9.result.wall_ms = 342.586;
  e9.result.stats.max_load = 5129;
  e9.result.stats.rounds = 43;
  e9.result.stats.total_comm = 1589150;
  e9.result.stats.critical_path = 126971;
  e9.result.stats.recovery_comm = 835055;
  e9.columns = {IntColumn("resumes", 1), IntColumn("resumed_rounds", 4),
                IntColumn("rebalances", 0), IntColumn("rebalance_comm", 0),
                IntColumn("replans", 0)};

  const std::string path = ::testing::TempDir() + "/bench_util_cols.json";
  std::remove(path.c_str());
  std::string error;
  ASSERT_TRUE(UpdateBenchJson(path, "E8", {e8}, &error)) << error;
  ASSERT_TRUE(UpdateBenchJson(path, "E9", {e9}, &error)) << error;

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[3],
            "    {\"experiment\": \"E8\", \"name\": "
            "\"calibration/out=16384/p=16\", \"n\": 8192, \"p\": 16, "
            "\"threads\": 4, \"wall_ms\": 160.382, \"max_load\": 1328, "
            "\"rounds\": 26, \"total_comm\": 311291, \"critical_path\": "
            "30255, \"recovery_comm\": 0, \"chosen_unit\": "
            "\"matmul_worst_case\", \"chosen_calibrated\": "
            "\"matmul_output_sensitive\", \"measured_best\": "
            "\"matmul_output_sensitive\", \"corrected\": 1, "
            "\"calib_factor\": 0.4859},");
  EXPECT_EQ(lines[4],
            "    {\"experiment\": \"E9\", \"name\": \"matmul/resume/p=16\", "
            "\"n\": 20000, \"p\": 16, \"threads\": 1, \"wall_ms\": 342.586, "
            "\"max_load\": 5129, \"rounds\": 43, \"total_comm\": 1589150, "
            "\"critical_path\": 126971, \"recovery_comm\": 835055, "
            "\"resumes\": 1, \"resumed_rounds\": 4, \"rebalances\": 0, "
            "\"rebalance_comm\": 0, \"replans\": 0}");
}

TEST(BenchJsonTest, UnwritablePathReportsFailure) {
  const std::string path =
      ::testing::TempDir() + "/bench_util_no_such_dir/bench.json";
  std::string error;
  EXPECT_FALSE(UpdateBenchJson(path, "E1", {Row("E1", "a", 1)}, &error));
  EXPECT_EQ(error, "cannot open " + path + " for writing");

  // The bench-facing writer reads the same path from the environment and
  // returns the failure to main.
  ASSERT_EQ(setenv("PARJOIN_BENCH_JSON", path.c_str(), 1), 0);
  EXPECT_FALSE(WriteBenchJson("E1", {Row("E1", "a", 1)}));
  unsetenv("PARJOIN_BENCH_JSON");
}

}  // namespace
}  // namespace bench
}  // namespace parjoin
