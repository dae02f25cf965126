#include "dcnas/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "dcnas/common/error.hpp"
#include "dcnas/common/stats.hpp"

namespace dcnas::obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(HistogramTest, BucketBoundarySemantics) {
  // Boundaries [1, 2, 4]: bucket 0 = (-inf, 1), 1 = [1, 2), 2 = [2, 4),
  // 3 = [4, +inf).
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0
  h.observe(1.0);   // bucket 1 (boundary value goes right)
  h.observe(1.99);  // bucket 1
  h.observe(3.9);   // bucket 2
  h.observe(4.0);   // bucket 3
  h.observe(100.0); // bucket 3
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{1, 2, 1, 2}));
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.99 + 3.9 + 4.0 + 100.0, 1e-12);
}

TEST(HistogramTest, RejectsInvalidBoundaries) {
  EXPECT_THROW(Histogram({}), InvalidArgument);
  EXPECT_THROW(Histogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram({2.0, 1.0}), InvalidArgument);
}

TEST(HistogramTest, ExponentialBoundaries) {
  const auto b = Histogram::exponential_boundaries(1e-3, 10.0, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-3);
  EXPECT_NEAR(b.back(), 10.0, 1e-9);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_GT(b[i], b[i - 1]);
    // Constant ratio between consecutive boundaries.
    EXPECT_NEAR(b[i] / b[i - 1], std::pow(10.0 / 1e-3, 0.25), 1e-9);
  }
}

TEST(HistogramTest, ResetZeroesInPlace) {
  Histogram h({1.0});
  h.observe(0.5);
  h.observe(2.0);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{0, 0}));
  h.observe(3.0);
  EXPECT_EQ(h.count(), 1);
}

TEST(SummaryTest, QuantilesMatchCommonStats) {
  Summary s;
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(static_cast<double>(i) * 0.5);
    s.observe(values.back());
  }
  EXPECT_EQ(s.count(), 100);
  EXPECT_DOUBLE_EQ(s.quantile(0.50), quantile(values, 0.50));
  EXPECT_DOUBLE_EQ(s.quantile(0.95), quantile(values, 0.95));
  EXPECT_DOUBLE_EQ(s.quantile(0.99), quantile(values, 0.99));
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 50.0);
}

TEST(SummaryTest, QuantilesTrackLatestSamplesOnceFull) {
  constexpr std::size_t kMax = Summary::kMaxSamples;
  Summary s;
  for (std::size_t i = 0; i < kMax; ++i) s.observe(1.0);
  for (std::size_t i = 0; i < kMax; ++i) s.observe(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.0);
  EXPECT_EQ(s.count(), static_cast<std::int64_t>(2 * kMax));
  EXPECT_DOUBLE_EQ(s.sum(), 3.0 * static_cast<double>(kMax));
}

TEST(SummaryTest, SamplesComeOldestFirstAfterWrap) {
  constexpr std::size_t kMax = Summary::kMaxSamples;
  Summary s;
  for (std::size_t i = 0; i < kMax + 3; ++i) {
    s.observe(static_cast<double>(i));
  }
  const std::vector<double> xs = s.samples();
  ASSERT_EQ(xs.size(), kMax);
  EXPECT_DOUBLE_EQ(xs.front(), 3.0);
  EXPECT_DOUBLE_EQ(xs[kMax - 4], static_cast<double>(kMax - 1));
  EXPECT_DOUBLE_EQ(xs.back(), static_cast<double>(kMax + 2));
  s.reset();
  s.observe(7.0);
  EXPECT_EQ(s.samples(), std::vector<double>{7.0});
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry r;
  Counter& a = r.counter("x.count");
  Counter& b = r.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry r;
  r.counter("metric.a");
  EXPECT_THROW(r.gauge("metric.a"), InvalidArgument);
  EXPECT_THROW(r.histogram("metric.a", {1.0}), InvalidArgument);
  EXPECT_THROW(r.summary("metric.a"), InvalidArgument);
  EXPECT_EQ(r.find_gauge("metric.a"), nullptr);
  EXPECT_NE(r.find_counter("metric.a"), nullptr);
}

TEST(MetricsRegistryTest, FindDoesNotCreate) {
  MetricsRegistry r;
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_TRUE(r.names_with_prefix("").empty());
}

TEST(MetricsRegistryTest, NamesWithPrefixSorted) {
  MetricsRegistry r;
  r.counter("b.two");
  r.counter("a.one");
  r.gauge("b.one");
  EXPECT_EQ(r.names_with_prefix("b."),
            (std::vector<std::string>{"b.one", "b.two"}));
  EXPECT_EQ(r.names_with_prefix(""),
            (std::vector<std::string>{"a.one", "b.one", "b.two"}));
}

TEST(MetricsRegistryTest, ResetPrefixZeroesInPlaceKeepingReferences) {
  MetricsRegistry r;
  Counter& serve = r.counter("serve.count");
  Counter& nas = r.counter("nas.count");
  serve.add(5);
  nas.add(7);
  r.reset_prefix("serve.");
  EXPECT_EQ(serve.value(), 0);
  EXPECT_EQ(nas.value(), 7);
  // The reference obtained before reset still records into the registry.
  serve.add(2);
  EXPECT_EQ(r.find_counter("serve.count")->value(), 2);
  r.reset();
  EXPECT_EQ(nas.value(), 0);
}

TEST(MetricsRegistryTest, SnapshotCopiesAllKinds) {
  MetricsRegistry r;
  r.counter("c").add(4);
  r.gauge("g").set(2.5);
  r.histogram("h", {1.0}).observe(0.5);
  r.summary("s").observe(9.0);
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c");
  EXPECT_EQ(snap.counters[0].second, 4);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 2.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1);
  EXPECT_EQ(snap.histograms[0].second.buckets,
            (std::vector<std::int64_t>{1, 0}));
  ASSERT_EQ(snap.summaries.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.summaries[0].second.p50, 9.0);
}

// Once a summary's ring wraps, the exported count, sum and mean still
// cover every observation while min/max/quantiles cover the retained ones.
TEST(MetricsRegistryTest, SummarySnapshotCountsEveryObservationAfterWrap) {
  constexpr std::size_t kMax = Summary::kMaxSamples;
  MetricsRegistry r;
  Summary& s = r.summary("s");
  for (std::size_t i = 0; i < kMax; ++i) s.observe(1.0);
  for (int i = 0; i < 3; ++i) s.observe(5.0);
  const MetricsSnapshot snap = r.snapshot();
  ASSERT_EQ(snap.summaries.size(), 1u);
  const SummarySnapshot& got = snap.summaries[0].second;
  const double sum = static_cast<double>(kMax) + 15.0;
  EXPECT_EQ(got.count, static_cast<std::int64_t>(kMax + 3));
  EXPECT_DOUBLE_EQ(got.sum, sum);
  EXPECT_DOUBLE_EQ(got.mean, sum / static_cast<double>(kMax + 3));
  EXPECT_DOUBLE_EQ(got.min, 1.0);
  EXPECT_DOUBLE_EQ(got.max, 5.0);
  EXPECT_DOUBLE_EQ(got.p50, 1.0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreLossless) {
  MetricsRegistry r;
  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      // Mix registration (name lookup) and updates to exercise both locks.
      for (int i = 0; i < kAddsPerThread; ++i) {
        r.counter("shared.count").add(1);
        r.histogram("shared.hist", {1.0, 2.0}).observe(1.5);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(r.counter("shared.count").value(), kThreads * kAddsPerThread);
  EXPECT_EQ(r.histogram("shared.hist", {1.0, 2.0}).count(),
            kThreads * kAddsPerThread);
  EXPECT_EQ(r.histogram("shared.hist", {1.0, 2.0}).bucket_counts(),
            (std::vector<std::int64_t>{0, kThreads * kAddsPerThread, 0}));
}

}  // namespace
}  // namespace dcnas::obs
