// Tests for the observability subsystem (src/obs/): the fixed histogram
// bucket grid, merge/quantile determinism, concurrent recorders, the
// metrics registry, phase spans, and the Prometheus exporter.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace asti {
namespace {

// --- Bucket grid ------------------------------------------------------------

TEST(HistogramLayoutTest, SmallValuesGetExactBuckets) {
  for (uint64_t v = 0; v < HistogramLayout::kSub; ++v) {
    EXPECT_EQ(HistogramLayout::BucketIndex(v), v);
    EXPECT_EQ(HistogramLayout::BucketMin(v), v);
    EXPECT_EQ(HistogramLayout::BucketMax(v), v);
  }
}

TEST(HistogramLayoutTest, PinnedIndices) {
  // The grid is a wire/merge format: these values must never move.
  EXPECT_EQ(HistogramLayout::kNumBuckets, 244u);
  EXPECT_EQ(HistogramLayout::BucketIndex(4), 4u);
  EXPECT_EQ(HistogramLayout::BucketIndex(5), 5u);
  EXPECT_EQ(HistogramLayout::BucketIndex(7), 7u);
  EXPECT_EQ(HistogramLayout::BucketIndex(8), 8u);   // next octave
  // 1000: octave w=9, sub-bucket (1000 >> 7) & 3 = 3 → 4 + (9−2)·4 + 3.
  EXPECT_EQ(HistogramLayout::BucketIndex(1000), 35u);
  EXPECT_EQ(HistogramLayout::BucketIndex(HistogramLayout::kMaxValue),
            HistogramLayout::kNumBuckets - 1);
  // Values beyond the grid clamp into the top bucket.
  EXPECT_EQ(HistogramLayout::BucketIndex(~uint64_t{0}),
            HistogramLayout::kNumBuckets - 1);
}

TEST(HistogramLayoutTest, BucketBoundsRoundTrip) {
  for (size_t i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    const uint64_t lo = HistogramLayout::BucketMin(i);
    const uint64_t hi = HistogramLayout::BucketMax(i);
    ASSERT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(HistogramLayout::BucketIndex(lo), i);
    EXPECT_EQ(HistogramLayout::BucketIndex(hi), i);
    if (i > 0) {
      EXPECT_EQ(HistogramLayout::BucketMax(i - 1) + 1, lo)
          << "gap or overlap before bucket " << i;
    }
  }
}

TEST(HistogramLayoutTest, IndexIsMonotonic) {
  uint64_t previous = 0;
  for (uint64_t v = 0; v < 100000; ++v) {
    const uint64_t index = HistogramLayout::BucketIndex(v);
    ASSERT_GE(index, previous) << "v=" << v;
    previous = index;
  }
}

// --- Merge / quantile determinism -------------------------------------------

TEST(HistogramDataTest, MergeOfShardsMatchesSingleStream) {
  // The core contract: quantiles of a merge are bit-identical to the
  // quantiles of one histogram fed the same values in any order.
  std::vector<uint64_t> values;
  uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    values.push_back(x >> 30);  // spread across many octaves
  }

  HistogramData single;
  for (uint64_t v : values) single.Add(v);

  HistogramData shards[4];
  for (size_t i = 0; i < values.size(); ++i) shards[i % 4].Add(values[i]);
  HistogramData merged;
  // Merge in reverse shard order: order must not matter.
  for (int s = 3; s >= 0; --s) merged.Merge(shards[s]);

  EXPECT_EQ(merged.buckets, single.buckets);
  EXPECT_EQ(merged.sum, single.sum);
  EXPECT_EQ(merged.Count(), single.Count());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.Quantile(q), single.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramDataTest, QuantileSemantics) {
  HistogramData h;
  EXPECT_EQ(h.Quantile(0.5), 0u);  // empty
  for (uint64_t v = 0; v < 4; ++v) h.Add(v);  // exact buckets 0..3
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Quantile(0.25), 0u);
  EXPECT_EQ(h.Quantile(0.5), 1u);
  EXPECT_EQ(h.Quantile(1.0), 3u);
  // Quantile representatives never under-report: BucketMax(BucketIndex(v)) >= v.
  h.Add(1000);
  EXPECT_GE(h.Quantile(1.0), 1000u);
}

TEST(LogHistogramTest, ConcurrentRecordsAllLand) {
  LogHistogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramData data = histogram.Snapshot();
  EXPECT_EQ(data.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(data.sum, n * (n - 1) / 2);
}

// --- Counters / registry ----------------------------------------------------

TEST(ShardedCounterTest, ConcurrentAddsAreExact) {
  ShardedCounter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  const MetricLabels labels_a = {{"graph", "a"}};
  const MetricLabels labels_b = {{"graph", "b"}};
  ShardedCounter& counter_a = registry.GetCounter("requests", labels_a);
  ShardedCounter& counter_b = registry.GetCounter("requests", labels_b);
  EXPECT_NE(&counter_a, &counter_b);
  counter_a.Add(3);
  // Same identity resolves to the same object, not a fresh zero.
  EXPECT_EQ(&registry.GetCounter("requests", labels_a), &counter_a);
  EXPECT_EQ(registry.GetCounter("requests", labels_a).Value(), 3u);

  LogHistogram& h = registry.GetHistogram("latency", labels_a, 1e-9);
  h.Record(42);
  EXPECT_EQ(&registry.GetHistogram("latency", labels_a, 1e-9), &h);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  // Sorted by (name, labels): graph=a before graph=b.
  EXPECT_EQ(snapshot.counters[0].labels, labels_a);
  EXPECT_EQ(snapshot.counters[0].value, 3u);
  EXPECT_EQ(snapshot.counters[1].value, 0u);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].scale, 1e-9);
  EXPECT_EQ(snapshot.histograms[0].data.Count(), 1u);

  const CounterSample* found = snapshot.FindCounter("requests", labels_a);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value, 3u);
  EXPECT_EQ(snapshot.FindCounter("requests", {{"graph", "zzz"}}), nullptr);
}

TEST(MetricsRegistryTest, MergedHistogramFiltersByLabel) {
  MetricsRegistry registry;
  registry.GetHistogram("lat", {{"graph", "a"}, {"algorithm", "x"}}, 1e-9).Record(10);
  registry.GetHistogram("lat", {{"graph", "a"}, {"algorithm", "y"}}, 1e-9).Record(20);
  registry.GetHistogram("lat", {{"graph", "b"}, {"algorithm", "x"}}, 1e-9).Record(30);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.MergedHistogram("lat").Count(), 3u);
  EXPECT_EQ(snapshot.MergedHistogram("lat", "graph", "a").Count(), 2u);
  EXPECT_EQ(snapshot.MergedHistogram("lat", "graph", "b").Count(), 1u);
  EXPECT_EQ(snapshot.MergedHistogram("lat", "graph", "zzz").Count(), 0u);
  EXPECT_EQ(snapshot.MergedHistogram("other").Count(), 0u);
}

// --- Phase spans ------------------------------------------------------------

TEST(PhaseSpanTest, NullProfileIsANoOp) {
  PhaseSpan span(nullptr, RequestPhase::kSampling);  // must not crash
  NoteSampling(nullptr, 100, 100);
}

TEST(PhaseSpanTest, AccumulatesIntoTheRightSlot) {
  RequestProfile profile;
  {
    PhaseSpan span(&profile, RequestPhase::kCoverage);
    // Burn a little time so the slot is measurably positive.
    volatile uint64_t sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<uint64_t>(i);
  }
  EXPECT_GT(profile.coverage_seconds, 0.0);
  EXPECT_EQ(profile.sampling_seconds, 0.0);
  EXPECT_EQ(profile.certify_seconds, 0.0);

  NoteSampling(&profile, 10, 500);
  NoteSampling(&profile, 5, 300);  // bytes keeps the peak, sets accumulate
  EXPECT_EQ(profile.sets_generated, 15u);
  EXPECT_EQ(profile.collection_bytes, 500u);
}

// --- Exporters --------------------------------------------------------------

TEST(ExportTest, PrometheusTextShape) {
  MetricsRegistry registry;
  registry.GetCounter("asti_requests_total", {{"graph", "g"}, {"outcome", "OK"}})
      .Add(2);
  LogHistogram& h =
      registry.GetHistogram("asti_request_latency_seconds", {{"graph", "g"}}, 1e-9);
  h.Record(1000000000);  // 1s
  h.Record(2000000000);  // 2s
  registry.GetGauge("asti_admission_inflight").Set(4);
  const std::string text = ExportPrometheusText(registry.Snapshot());

  EXPECT_NE(text.find("# TYPE asti_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("asti_requests_total{graph=\"g\",outcome=\"OK\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE asti_request_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("asti_request_latency_seconds_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("asti_request_latency_seconds_sum{graph=\"g\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("asti_request_latency_seconds_count{graph=\"g\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE asti_admission_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("asti_admission_inflight 4"), std::string::npos);
  // One TYPE line per family, even with several label sets.
  registry.GetCounter("asti_requests_total", {{"graph", "h"}, {"outcome", "OK"}})
      .Add(1);
  const std::string two = ExportPrometheusText(registry.Snapshot());
  const size_t first = two.find("# TYPE asti_requests_total counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(two.find("# TYPE asti_requests_total counter", first + 1),
            std::string::npos);
}

}  // namespace
}  // namespace asti
