#include "obs/metrics.h"

namespace asti {

size_t ShardedCounter::ThreadShard() {
  static std::atomic<size_t> next_shard{0};
  thread_local const size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

ShardedCounter& MetricsRegistry::GetCounter(const std::string& name,
                                            const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<ShardedCounter>& slot = counters_[Key{name, labels}];
  if (slot == nullptr) slot = std::make_unique<ShardedCounter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[Key{name, labels}];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LogHistogram& MetricsRegistry::GetHistogram(const std::string& name,
                                            const MetricLabels& labels, double scale) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<HistogramEntry>& slot = histograms_[Key{name, labels}];
  if (slot == nullptr) {
    slot = std::make_unique<HistogramEntry>();
    slot->scale = scale;
  }
  return slot->histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [key, counter] : counters_) {
    snapshot.counters.push_back({key.first, key.second, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [key, gauge] : gauges_) {
    snapshot.gauges.push_back({key.first, key.second, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [key, entry] : histograms_) {
    snapshot.histograms.push_back(
        {key.first, key.second, entry->scale, entry->histogram.Snapshot()});
  }
  return snapshot;
}

const CounterSample* MetricsSnapshot::FindCounter(const std::string& name,
                                                  const MetricLabels& labels) const {
  for (const CounterSample& sample : counters) {
    if (sample.name == name && sample.labels == labels) return &sample;
  }
  return nullptr;
}

HistogramData MetricsSnapshot::MergedHistogram(const std::string& name,
                                               const std::string& label_key,
                                               const std::string& label_value) const {
  HistogramData merged;
  for (const HistogramSample& sample : histograms) {
    if (sample.name != name) continue;
    if (!label_key.empty()) {
      bool match = false;
      for (const auto& [key, value] : sample.labels) {
        if (key == label_key && value == label_value) {
          match = true;
          break;
        }
      }
      if (!match) continue;
    }
    merged.Merge(sample.data);
  }
  return merged;
}

}  // namespace asti
