// MetricsRegistry — named counters, gauges, and log-bucketed histograms
// for the serving stack.
//
// Design constraints, in order:
//   1. Hot-path increments must not serialize: ShardedCounter spreads
//      increments across cache-line-padded per-thread cells, so Add() is
//      one relaxed atomic fetch_add on a cell this thread (almost always)
//      has exclusive ownership of. LogHistogram::Record is likewise one
//      relaxed add (obs/histogram.h). No locks anywhere on the write path.
//   2. Registration is rare and amortized: GetCounter/GetGauge/
//      GetHistogram take a mutex, but return a STABLE reference (entries
//      are never erased), so callers resolve a handle once and increment
//      forever. The SeedMinEngine resolves handles per request
//      completion — never per RR-set.
//   3. Snapshots are deterministic: entries are stored in a sorted map
//      keyed on (name, labels), so two snapshots of registries fed the
//      same updates enumerate identically, and exporters need no sorting.
//
// Metric identity is (name, labels) where labels is an ordered list of
// key/value pairs — callers must use one canonical label order per metric
// family (the engine always emits {graph, algorithm}).
//
// The registry records raw uint64 values; a histogram's `scale` says how
// exporters convert raw units to display units (1e-9 turns recorded
// nanoseconds into exported seconds). See obs/export.h for the text and
// JSON exporters.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace asti {

/// Ordered label key/value pairs; part of a metric's identity.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter with per-thread sharded cells: Add() is a relaxed
/// fetch_add on this thread's cell (cache-line padded, so concurrent
/// writers do not false-share); Value() sums the cells. Totals are exact —
/// every increment lands in exactly one cell — only the *moment* a
/// concurrent reader observes each cell differs.
class ShardedCounter {
 public:
  static constexpr size_t kShards = 16;

  ShardedCounter() = default;
  ShardedCounter(const ShardedCounter&) = delete;
  ShardedCounter& operator=(const ShardedCounter&) = delete;

  void Add(uint64_t delta = 1) {
    cells_[ThreadShard()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  /// Stable per-thread cell index: threads are assigned round-robin on
  /// first use, so up to kShards concurrent writers never contend.
  static size_t ThreadShard();

  std::array<Cell, kShards> cells_{};
};

/// Point-in-time signed value (inflight requests, queue depth).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// --- Snapshots --------------------------------------------------------------

struct CounterSample {
  std::string name;
  MetricLabels labels;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  MetricLabels labels;
  int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  MetricLabels labels;
  /// Raw-value → display-unit factor (1e-9 for ns-recorded seconds).
  double scale = 1.0;
  HistogramData data;
};

/// A consistent-enumeration copy of a registry (plus whatever synthesized
/// samples the producer appends — the engine adds admission counters and
/// per-graph gauges). Sorted by (name, labels) within each kind.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(const std::string& name,
                                   const MetricLabels& labels) const;

  /// Element-wise merge of every histogram named `name` whose labels
  /// contain `label_key == label_value` (empty key = every label set).
  /// Deterministic: merging commutes on the fixed bucket grid.
  HistogramData MergedHistogram(const std::string& name,
                                const std::string& label_key = "",
                                const std::string& label_value = "") const;
};

// --- Registry ---------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create; the returned reference is stable for the registry's
  /// lifetime (resolve once, increment lock-free forever).
  ShardedCounter& GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge& GetGauge(const std::string& name, const MetricLabels& labels = {});
  /// `scale` is fixed at first creation; later calls for the same
  /// (name, labels) return the existing histogram unchanged.
  LogHistogram& GetHistogram(const std::string& name, const MetricLabels& labels = {},
                             double scale = 1.0);

  MetricsSnapshot Snapshot() const;

 private:
  using Key = std::pair<std::string, MetricLabels>;

  struct HistogramEntry {
    double scale = 1.0;
    LogHistogram histogram;
  };

  mutable std::mutex mutex_;
  std::map<Key, std::unique_ptr<ShardedCounter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<HistogramEntry>> histograms_;
};

}  // namespace asti
