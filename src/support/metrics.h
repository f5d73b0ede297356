// Named counters and latency histograms for tuning telemetry.
//
// The registry is a process-global singleton of monotone instruments:
//
//   * Counter — a lock-free (relaxed atomic) 64-bit counter. Full 64-bit
//     range: values past INT32_MAX neither truncate nor saturate.
//   * Gauge — a settable signed level (e.g. serving queue depth): Set() and
//     Add() with negative deltas allowed. A gauge is a point-in-time reading,
//     so DeltaSince passes the end-snapshot value through unchanged.
//   * Histogram — fixed exponential buckets (4 per octave, so bucket bounds
//     grow by 2^(1/4) ~ 1.19x) over non-negative doubles, with approximate
//     p50/p95/p99 (reported as the upper bound of the bucket holding the
//     rank, i.e. at most one resolution step above the true value). Observe()
//     is wait-free: one log2, one atomic increment per bucket/count/sum.
//
// Instruments are created on first use and never destroyed, so call sites can
// cache references in function-local statics:
//
//   static Counter& hits = MetricsRegistry::Global().counter("measure.cache_hits");
//   hits.Add();
//
// Per-run attribution on a process-global registry works by DELTA snapshots:
// snapshot at run start, snapshot at run end, and DeltaSince() subtracts
// counters and histogram buckets (recomputing percentiles from the delta
// buckets). JointTuner does exactly this to attach a per-compilation
// MetricsSnapshot to CompiledNetwork. Deltas are exact as long as no other
// run executes concurrently in the same process; min/max are not deltable
// and report the end-snapshot values.

#ifndef ALT_SUPPORT_METRICS_H_
#define ALT_SUPPORT_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alt {

class Counter {
 public:
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Histogram {
 public:
  // Bucket 0 holds values <= 1 (and anything non-positive or non-finite from
  // below); the last bucket holds everything past the covered range (~4e9
  // units, i.e. over an hour when observing microseconds).
  static constexpr int kBuckets = 128;
  static constexpr int kSubBuckets = 4;  // buckets per octave

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  // Approximate percentile in [0, 100]: the upper bound of the bucket that
  // contains the requested rank (0 when empty).
  double Percentile(double p) const;

  int64_t bucket(int i) const { return buckets_[i].load(std::memory_order_relaxed); }
  // Upper bound of bucket i's value range.
  static double BucketUpperBound(int i);

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// Point-in-time value of one histogram, carrying the raw buckets so deltas
// can recompute percentiles.
struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  double max = 0.0;  // since process start; not deltable
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<int64_t> buckets;

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;  // sorted by name
  std::vector<std::pair<std::string, int64_t>> gauges;    // sorted by name
  std::vector<HistogramSnapshot> histograms;              // sorted by name

  // 0 / nullptr when the instrument does not exist (yet).
  int64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;

  // This snapshot minus `start`: counters subtract, histogram buckets
  // subtract bucket-wise and percentiles are recomputed from the difference.
  // Instruments absent from `start` pass through unchanged.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& start) const;

  // Stable JSON rendering (counters + histogram summaries) for artifacts.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Find-or-create; the returned reference is valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace alt

#endif  // ALT_SUPPORT_METRICS_H_
