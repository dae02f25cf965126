#include "dcnas/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "dcnas/common/error.hpp"
#include "json_util.hpp"

namespace dcnas::obs {

namespace {

void atomic_add(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

std::string pad_name(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

}  // namespace

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  DCNAS_CHECK(!boundaries_.empty(), "histogram needs at least one boundary");
  for (std::size_t i = 1; i < boundaries_.size(); ++i) {
    DCNAS_CHECK(boundaries_[i - 1] < boundaries_[i],
                "histogram boundaries must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(
      boundaries_.size() + 1);
  for (std::size_t i = 0; i <= boundaries_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double value) {
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), value);
  // upper_bound: first boundary > value, so bucket i holds [b(i-1), b(i)).
  const auto bucket = static_cast<std::size_t>(it - boundaries_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, value);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }
double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> counts(boundaries_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= boundaries_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_boundaries(double lo, double hi,
                                                      int n) {
  DCNAS_CHECK(lo > 0.0 && hi > lo && n >= 1,
              "exponential_boundaries needs 0 < lo < hi and n >= 1");
  std::vector<double> boundaries;
  boundaries.reserve(static_cast<std::size_t>(n) + 1);
  const double ratio = std::pow(hi / lo, 1.0 / n);
  double b = lo;
  for (int i = 0; i <= n; ++i) {
    boundaries.push_back(b);
    b *= ratio;
  }
  boundaries.back() = hi;  // kill accumulated rounding on the last edge
  return boundaries;
}

void Summary::observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  sum_ += value;
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(value);
    return;
  }
  // Full: overwrite the oldest retained sample, so quantiles keep tracking
  // the most recent kMaxSamples observations.
  samples_[oldest_] = value;
  oldest_ = (oldest_ + 1) % kMaxSamples;
}

std::int64_t Summary::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Summary::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Summary::quantile(double q) const {
  DCNAS_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  std::vector<double> xs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    xs = samples_;
  }
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::vector<double> Summary::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto split = samples_.begin() + static_cast<std::ptrdiff_t>(oldest_);
  std::vector<double> out(split, samples_.end());
  out.insert(out.end(), samples_.begin(), split);
  return out;
}

void Summary::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  oldest_ = 0;
  count_ = 0;
  sum_ = 0.0;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry& MetricsRegistry::entry(
    std::string_view name, Kind kind, const std::vector<double>* boundaries) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>(*boundaries);
        break;
      case Kind::kSummary: e.summary = std::make_unique<Summary>(); break;
    }
    it = metrics_.emplace(std::string(name), std::move(e)).first;
  }
  DCNAS_CHECK(it->second.kind == kind,
              "metric '" + std::string(name) +
                  "' already registered as a different kind");
  return it->second;
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    Kind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it == metrics_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return *entry(name, Kind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return *entry(name, Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& boundaries) {
  return *entry(name, Kind::kHistogram, &boundaries).histogram;
}

Summary& MetricsRegistry::summary(std::string_view name) {
  return *entry(name, Kind::kSummary, nullptr).summary;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Entry* e = find(name, Kind::kCounter);
  return e ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Entry* e = find(name, Kind::kGauge);
  return e ? e->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const Entry* e = find(name, Kind::kHistogram);
  return e ? e->histogram.get() : nullptr;
}

const Summary* MetricsRegistry::find_summary(std::string_view name) const {
  const Entry* e = find(name, Kind::kSummary);
  return e ? e->summary.get() : nullptr;
}

std::vector<std::string> MetricsRegistry::names_with_prefix(
    std::string_view prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, _] : metrics_) {
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      names.push_back(name);
    }
  }
  return names;
}

void MetricsRegistry::reset() { reset_prefix(""); }

void MetricsRegistry::reset_prefix(std::string_view prefix) {
  // Zero in place rather than erase: references handed out by
  // counter()/histogram()/... must stay valid across resets.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : metrics_) {
    if (name.size() < prefix.size() ||
        std::string_view(name).substr(0, prefix.size()) != prefix) {
      continue;
    }
    switch (e.kind) {
      case Kind::kCounter: e.counter->reset(); break;
      case Kind::kGauge: e.gauge->reset(); break;
      case Kind::kHistogram: e.histogram->reset(); break;
      case Kind::kSummary: e.summary->reset(); break;
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Copy the (name, metric pointer) view under the registry lock, then read
  // each metric through its own thread-safe accessors.
  std::vector<std::pair<std::string, const Entry*>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(metrics_.size());
    for (const auto& [name, e] : metrics_) entries.emplace_back(name, &e);
  }
  MetricsSnapshot snap;
  for (const auto& [name, e] : entries) {
    switch (e->kind) {
      case Kind::kCounter:
        snap.counters.emplace_back(name, e->counter->value());
        break;
      case Kind::kGauge:
        snap.gauges.emplace_back(name, e->gauge->value());
        break;
      case Kind::kHistogram: {
        HistogramSnapshot h;
        h.boundaries = e->histogram->boundaries();
        h.buckets = e->histogram->bucket_counts();
        h.count = e->histogram->count();
        h.sum = e->histogram->sum();
        h.min = h.count > 0 ? e->histogram->min() : 0.0;
        h.max = h.count > 0 ? e->histogram->max() : 0.0;
        snap.histograms.emplace_back(name, std::move(h));
        break;
      }
      case Kind::kSummary: {
        SummarySnapshot s;
        const std::vector<double> xs = e->summary->samples();
        s.count = e->summary->count();
        s.sum = e->summary->sum();
        if (!xs.empty()) {
          s.mean = s.sum / static_cast<double>(s.count);
          s.p50 = e->summary->quantile(0.50);
          s.p95 = e->summary->quantile(0.95);
          s.p99 = e->summary->quantile(0.99);
          s.min = *std::min_element(xs.begin(), xs.end());
          s.max = *std::max_element(xs.begin(), xs.end());
        }
        snap.summaries.emplace_back(name, s);
        break;
      }
    }
  }
  return snap;
}

std::string MetricsRegistry::to_json() const {
  using detail::json_escape;
  using detail::json_number;
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(snap.counters[i].first)
       << "\": " << snap.counters[i].second;
  }
  os << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(snap.gauges[i].first)
       << "\": " << json_number(snap.gauges[i].second);
  }
  os << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i ? "," : "") << "\n    \"" << json_escape(name) << "\": {"
       << "\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
       << ", \"min\": " << json_number(h.min)
       << ", \"max\": " << json_number(h.max) << ", \"boundaries\": [";
    for (std::size_t b = 0; b < h.boundaries.size(); ++b) {
      os << (b ? ", " : "") << json_number(h.boundaries[b]);
    }
    os << "], \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      os << (b ? ", " : "") << h.buckets[b];
    }
    os << "]}";
  }
  os << (snap.histograms.empty() ? "" : "\n  ") << "},\n  \"summaries\": {";
  for (std::size_t i = 0; i < snap.summaries.size(); ++i) {
    const auto& [name, s] = snap.summaries[i];
    os << (i ? "," : "") << "\n    \"" << json_escape(name) << "\": {"
       << "\"count\": " << s.count << ", \"sum\": " << json_number(s.sum)
       << ", \"mean\": " << json_number(s.mean)
       << ", \"p50\": " << json_number(s.p50)
       << ", \"p95\": " << json_number(s.p95)
       << ", \"p99\": " << json_number(s.p99)
       << ", \"min\": " << json_number(s.min)
       << ", \"max\": " << json_number(s.max) << "}";
  }
  os << (snap.summaries.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string MetricsRegistry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  char buf[160];
  if (!snap.counters.empty()) {
    os << "counters\n";
    for (const auto& [name, value] : snap.counters) {
      std::snprintf(buf, sizeof buf, "  %s %12lld\n",
                    pad_name(name, 44).c_str(),
                    static_cast<long long>(value));
      os << buf;
    }
  }
  if (!snap.gauges.empty()) {
    os << "gauges\n";
    for (const auto& [name, value] : snap.gauges) {
      std::snprintf(buf, sizeof buf, "  %s %12.4f\n",
                    pad_name(name, 44).c_str(), value);
      os << buf;
    }
  }
  if (!snap.histograms.empty()) {
    os << "histograms" << pad_name("", 38) << "count          sum"
       << "          min          max\n";
    for (const auto& [name, h] : snap.histograms) {
      std::snprintf(buf, sizeof buf, "  %s %7lld %12.4f %12.4f %12.4f\n",
                    pad_name(name, 44).c_str(),
                    static_cast<long long>(h.count), h.sum, h.min, h.max);
      os << buf;
    }
  }
  if (!snap.summaries.empty()) {
    os << "summaries" << pad_name("", 39) << "count         mean"
       << "          p50          p95          p99\n";
    for (const auto& [name, s] : snap.summaries) {
      std::snprintf(buf, sizeof buf,
                    "  %s %7lld %12.4f %12.4f %12.4f %12.4f\n",
                    pad_name(name, 44).c_str(),
                    static_cast<long long>(s.count), s.mean, s.p50, s.p95,
                    s.p99);
      os << buf;
    }
  }
  return os.str();
}

}  // namespace dcnas::obs
