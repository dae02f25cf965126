#pragma once
/// \file metrics.hpp
/// \brief Named-metric registry: counters, gauges, fixed-boundary
/// histograms, and exact-quantile summaries, with JSON / aligned-text
/// export.
///
/// Metric names follow `subsystem.noun.verb` with a unit suffix where the
/// value is not a count (e.g. `serve.request.admitted.count`,
/// `serve.request.latency_ms`); per-model families append a label suffix
/// `{model=<name>}`. The full convention lives in OBSERVABILITY.md.
///
/// Update paths are designed for hot loops: Counter/Gauge/Histogram writes
/// are lock-free atomics; Summary (which keeps raw samples for exact
/// quantiles) takes a short uncontended mutex. Registration (name lookup)
/// takes the registry mutex — call sites on hot paths should cache the
/// returned reference, which stays valid for the registry's lifetime:
/// reset() zeroes metrics in place, it never deletes them.
///
/// Every subsystem records here directly.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dcnas::obs {

/// Monotonic event count. Lock-free.
class Counter {
 public:
  void add(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value. Lock-free.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram. For boundaries [b0, b1, ..., bn-1] there are
/// n+1 buckets: bucket 0 counts values < b0, bucket i counts [b(i-1), bi),
/// bucket n counts values >= bn-1. Also tracks count/sum/min/max exactly.
/// All updates are lock-free atomics.
class Histogram {
 public:
  /// \p boundaries must be non-empty and strictly increasing (throws
  /// dcnas::InvalidArgument otherwise).
  explicit Histogram(std::vector<double> boundaries);

  void observe(double value);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  const std::vector<double>& boundaries() const { return boundaries_; }
  std::vector<std::int64_t> bucket_counts() const;

  void reset();

  /// n+1 exponentially spaced boundaries: lo, lo*r, ..., hi.
  static std::vector<double> exponential_boundaries(double lo, double hi,
                                                    int n);

 private:
  std::vector<double> boundaries_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Raw-sample accumulator with exact quantiles — the serving-latency
/// percentile metric (a fixed-boundary histogram would interpolate).
/// Retains the latest \c kMaxSamples samples in a ring that overwrites the
/// oldest, so quantiles track recent traffic; count/sum stay exact over
/// every observation.
class Summary {
 public:
  static constexpr std::size_t kMaxSamples = 1 << 20;

  void observe(double value);

  std::int64_t count() const;
  double sum() const;
  /// Linear-interpolated exact quantile over retained samples, the same
  /// estimator as dcnas::quantile (common/stats.hpp). Returns 0 when empty.
  double quantile(double q) const;
  /// Copy of the retained samples, oldest first.
  std::vector<double> samples() const;

  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  std::size_t oldest_ = 0;  ///< ring slot of the oldest sample once full
  std::int64_t count_ = 0;
  double sum_ = 0.0;
};

/// Point-in-time copies used by the exporters.
struct HistogramSnapshot {
  std::vector<double> boundaries;
  std::vector<std::int64_t> buckets;
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct SummarySnapshot {
  std::int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, SummarySnapshot>> summaries;
};

/// Thread-safe name -> metric registry. `global()` is the process-wide
/// instance the pipeline instrumentation records into; subsystems that need
/// isolated scopes (e.g. one Server's per-model metrics) own private
/// instances.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  static MetricsRegistry& global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, creating it on first use. The reference is
  /// valid for the registry's lifetime. Re-registering a name as a
  /// different kind throws dcnas::InvalidArgument. For histogram(), the
  /// boundaries are fixed on first registration; later calls ignore them.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       const std::vector<double>& boundaries);
  Summary& summary(std::string_view name);

  /// Lookup without creation; nullptr when absent or a different kind.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;
  const Summary* find_summary(std::string_view name) const;

  /// Registered names (sorted) whose name starts with \p prefix.
  std::vector<std::string> names_with_prefix(std::string_view prefix) const;

  /// Zeroes every metric (resp. every metric under \p prefix) in place.
  /// References returned by counter()/histogram()/... remain valid.
  void reset();
  void reset_prefix(std::string_view prefix);

  MetricsSnapshot snapshot() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "summaries": {...}} — stable key order, parseable JSON.
  std::string to_json() const;
  /// Aligned human-readable table, one section per metric kind.
  std::string to_text() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kSummary };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<Summary> summary;
  };

  Entry& entry(std::string_view name, Kind kind,
               const std::vector<double>* boundaries);
  const Entry* find(std::string_view name, Kind kind) const;

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

}  // namespace dcnas::obs
