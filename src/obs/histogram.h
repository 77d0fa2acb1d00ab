// Mergeable log-bucketed histograms with a FIXED bucket layout.
//
// The layout is the whole point: every histogram in the process (and in
// every process that ever links this library) shares one deterministic
// bucket grid, so merging two histograms is element-wise addition of
// bucket counts and a quantile estimated from a merge of per-thread (or
// per-shard, or per-process) histograms is bit-identical to the quantile
// of one histogram fed the same values in any order. No dynamic
// rebucketing, no value-dependent resizing — the grid never moves.
//
// Grid: values 0..3 get exact buckets; from 4 up, each power-of-two
// octave is split into 4 sub-buckets (quartiles of the octave), giving
// ≤ 25% relative quantile error across the full uint64 range up to
// 2^62 − 1 (larger values clamp into the top bucket). 244 buckets total,
// ~2 KB per recorder.
//
// Two types:
//   * HistogramData — plain copyable counts; Add/Merge/Quantile. The
//     snapshot/merge/export currency.
//   * LogHistogram  — the concurrent recorder: Record() is one relaxed
//     atomic add on the bucket cell (plus one on the running sum), safe
//     from any thread, no locks; Snapshot() materializes a HistogramData.
//
// Time histograms record NANOSECONDS as the raw value; exporters attach
// a scale (1e-9) to present seconds. See src/obs/metrics.h.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace asti {

/// The process-wide fixed bucket grid shared by every histogram.
class HistogramLayout {
 public:
  /// Sub-bucket resolution: each octave [2^w, 2^{w+1}) splits into
  /// 2^kSubBits buckets.
  static constexpr uint64_t kSubBits = 2;
  static constexpr uint64_t kSub = 1ull << kSubBits;  // 4
  /// Highest octave exponent the grid resolves; values above kMaxValue
  /// clamp into the top bucket.
  static constexpr uint64_t kMaxExponent = 61;
  static constexpr uint64_t kMaxValue = (1ull << (kMaxExponent + 1)) - 1;
  /// 4 exact buckets for values 0..3, then 4 per octave for w in
  /// [kSubBits, kMaxExponent]: 4 + 60·4 = 244.
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kSub + (kMaxExponent - kSubBits + 1) * kSub);

  /// Bucket holding `value` (values > kMaxValue clamp to the top bucket).
  static size_t BucketIndex(uint64_t value);

  /// Inclusive smallest / largest value mapping to bucket `index`.
  /// BucketMax is the deterministic quantile representative: quantile
  /// estimates never under-report.
  static uint64_t BucketMin(size_t index);
  static uint64_t BucketMax(size_t index);
};

/// Plain histogram counts on the fixed grid: copyable, mergeable, and the
/// unit quantiles are computed from. Not thread-safe (use LogHistogram to
/// record concurrently, then Snapshot).
struct HistogramData {
  std::array<uint64_t, HistogramLayout::kNumBuckets> buckets{};
  /// Σ of recorded raw values. Exact when built via Add/Merge; a snapshot
  /// taken during concurrent recording may trail the buckets by the few
  /// in-flight records (counts stay internally consistent).
  uint64_t sum = 0;

  void Add(uint64_t value) {
    ++buckets[HistogramLayout::BucketIndex(value)];
    sum += value;
  }

  void Merge(const HistogramData& other) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
    sum += other.sum;
  }

  /// Total recorded values (Σ bucket counts).
  uint64_t Count() const;

  /// Deterministic quantile estimate for q ∈ [0, 1]: the BucketMax of the
  /// first bucket whose cumulative count reaches ⌈q·Count()⌉ (rank ≥ 1).
  /// 0 on an empty histogram. Merge-of-shards == single-stream by
  /// construction: only bucket counts enter the estimate.
  uint64_t Quantile(double q) const;
};

/// Concurrent recorder on the fixed grid. Record() is wait-free: one
/// relaxed fetch_add on the bucket cell and one on the sum — no locks,
/// no CAS loops — so it is safe on serving hot paths. Aggregation across
/// threads happens at Snapshot/Merge time, where determinism is free
/// because bucket counts commute.
class LogHistogram {
 public:
  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  void Record(uint64_t value) {
    buckets_[HistogramLayout::BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Copies the counts out (relaxed loads). A snapshot racing Record()
  /// observes some subset of concurrent records; each bucket value is a
  /// real count that was current at its load.
  HistogramData Snapshot() const {
    HistogramData data;
    for (size_t i = 0; i < data.buckets.size(); ++i) {
      data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    data.sum = sum_.load(std::memory_order_relaxed);
    return data;
  }

 private:
  std::array<std::atomic<uint64_t>, HistogramLayout::kNumBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

}  // namespace asti
