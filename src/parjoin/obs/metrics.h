// Metrics registry: named counters, gauges, and fixed-bucket histograms
// behind the annotated Mutex wrappers (common/mutex.h), for the serving
// runtime's operational numbers — qps, latency quantiles, plan-cache
// hit/miss/eviction, served/failed queries, recovery counts.
//
// Metrics are created through the registry and owned by it; the returned
// pointers stay valid for the registry's lifetime and every mutation is
// individually locked, so any thread may update any metric. Snapshot
// rendering (ToJson) emits metrics sorted by name — deterministic output
// for tests and diffable dumps.

#ifndef PARJOIN_OBS_METRICS_H_
#define PARJOIN_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "parjoin/common/mutex.h"
#include "parjoin/common/status.h"
#include "parjoin/common/thread_annotations.h"

namespace parjoin {
namespace obs {

class Counter {
 public:
  void Increment(std::int64_t delta = 1) {
    MutexLock lock(mu_);
    value_ += delta;
  }
  std::int64_t Value() const {
    MutexLock lock(mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  std::int64_t value_ GUARDED_BY(mu_) = 0;
};

class Gauge {
 public:
  void Set(double value) {
    MutexLock lock(mu_);
    value_ = value;
  }
  double Value() const {
    MutexLock lock(mu_);
    return value_;
  }

 private:
  mutable Mutex mu_;
  double value_ GUARDED_BY(mu_) = 0;
};

// Fixed-bucket histogram: `bounds` are ascending upper bounds, with an
// implicit +inf bucket at the end. Quantile() interpolates linearly inside
// the bucket the quantile falls in (the usual fixed-bucket estimate; exact
// min/max are tracked separately and clamp the interpolation).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  std::int64_t Count() const;
  double Sum() const;
  double Min() const;  // 0 when empty
  double Max() const;  // 0 when empty
  // q in [0,1]; 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::int64_t> BucketCounts() const;

 private:
  double QuantileLocked(double q) const REQUIRES(mu_);

  const std::vector<double> bounds_;
  mutable Mutex mu_;
  std::vector<std::int64_t> counts_ GUARDED_BY(mu_);  // bounds_.size() + 1
  std::int64_t count_ GUARDED_BY(mu_) = 0;
  double sum_ GUARDED_BY(mu_) = 0;
  double min_ GUARDED_BY(mu_) = 0;
  double max_ GUARDED_BY(mu_) = 0;
};

// Default latency buckets (milliseconds): sub-microsecond warm plans up
// through multi-second stragglers.
std::vector<double> DefaultLatencyBucketsMs();

class MetricsRegistry {
 public:
  // Get-or-create by name. The kind must be consistent: asking for an
  // existing name as a different kind is a CHECK failure (an internal
  // naming bug).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  // `bounds` is consumed on first creation and ignored on lookup.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  // {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  // max,p50,p90,p99}}} with names sorted.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace parjoin

#endif  // PARJOIN_OBS_METRICS_H_
