// Persistent execution profile: predicted-vs-measured load and wall time
// per (algorithm, query shape, p, input-size bucket), recorded from every
// plan::PlanAndRun / TryExecuteWithRecovery execution (the executor's
// ExecutionProfileSink seam), merged across runs into a profile file, and
// fitted into a plan::CalibrationTable the planner consults.
//
// The fit is least squares on log-ratios: minimizing
// Σ (log measured_i − log(c · predicted_i))² over the constant c gives
// log c = mean(log(measured_i / predicted_i)) — the geometric mean of the
// per-run ratios. Cells store Σ log-ratio and the run count, so merging
// profiles is associative and idempotent-friendly (Merge adds counts;
// merging disjoint stores commutes; ToJson/FromJson round-trips exactly).
//
// File format `parjoin-profile-v1`, line-oriented like BENCH_parjoin.json:
//   {"schema":"parjoin-profile-v1","cells":N}
//   {"algorithm":...,"shape":...,"p":P,"log2_n":B,"runs":R,
//    "sum_log_ratio":S,"sum_predicted":..,"sum_measured":..,
//    "sum_wall_ms":..}
// Calibration files are `parjoin-calibration-v1` with per-entry lines
// ("shape":"*" marks the per-algorithm any-shape default).

#ifndef PARJOIN_OBS_PROFILE_H_
#define PARJOIN_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>

#include "parjoin/common/status.h"
#include "parjoin/plan/cost_model.h"
#include "parjoin/plan/executor.h"

namespace parjoin {
namespace obs {

inline constexpr char kProfileSchema[] = "parjoin-profile-v1";
inline constexpr char kCalibrationSchema[] = "parjoin-calibration-v1";

struct ProfileKey {
  plan::Algorithm algorithm = plan::Algorithm::kYannakakis;
  QueryShape shape = QueryShape::kTree;
  int p = 1;
  int log2_n = 0;  // floor(log2(max(1, input_size)))

  friend bool operator<(const ProfileKey& a, const ProfileKey& b) {
    if (a.algorithm != b.algorithm) return a.algorithm < b.algorithm;
    if (a.shape != b.shape) return a.shape < b.shape;
    if (a.p != b.p) return a.p < b.p;
    return a.log2_n < b.log2_n;
  }
  friend bool operator==(const ProfileKey& a, const ProfileKey& b) {
    return a.algorithm == b.algorithm && a.shape == b.shape && a.p == b.p &&
           a.log2_n == b.log2_n;
  }
};

struct ProfileCell {
  std::int64_t runs = 0;
  double sum_log_ratio = 0;  // Σ log(measured / predicted)
  double sum_predicted = 0;
  double sum_measured = 0;
  double sum_wall_ms = 0;

  friend bool operator==(const ProfileCell& a, const ProfileCell& b) {
    return a.runs == b.runs && a.sum_log_ratio == b.sum_log_ratio &&
           a.sum_predicted == b.sum_predicted &&
           a.sum_measured == b.sum_measured &&
           a.sum_wall_ms == b.sum_wall_ms;
  }
};

class ProfileStore : public plan::ExecutionProfileSink {
 public:
  // ExecutionProfileSink: folds one finished execution into its cell.
  // Samples with a non-positive predicted or measured load are dropped
  // (no ratio to learn from).
  void RecordExecution(const plan::ExecutionRecord& record) override;

  // Adds every cell of `other` into this store.
  void Merge(const ProfileStore& other);

  const std::map<ProfileKey, ProfileCell>& cells() const { return cells_; }
  std::int64_t total_runs() const;
  bool empty() const { return cells_.empty(); }

  std::string ToJson() const;
  static StatusOr<ProfileStore> FromJson(const std::string& text);

  Status SaveFile(const std::string& path) const;
  // Missing file -> empty store (a fresh deployment has no history yet);
  // an unreadable or malformed file is still an error.
  static StatusOr<ProfileStore> LoadOrEmpty(const std::string& path);

  friend bool operator==(const ProfileStore& a, const ProfileStore& b) {
    return a.cells_ == b.cells_;
  }

 private:
  std::map<ProfileKey, ProfileCell> cells_;
};

// Fits per-(algorithm, shape) factors — geometric mean of measured /
// predicted, run-weighted across p and size buckets — plus a per-algorithm
// any-shape default.
plan::CalibrationTable FitCalibration(const ProfileStore& profile);

Status SaveCalibrationFile(const plan::CalibrationTable& table,
                           const std::string& path);
StatusOr<plan::CalibrationTable> LoadCalibrationFile(
    const std::string& path);

}  // namespace obs
}  // namespace parjoin

#endif  // PARJOIN_OBS_PROFILE_H_
