#include "obs/histogram.h"

#include <bit>
#include <cmath>

namespace asti {

size_t HistogramLayout::BucketIndex(uint64_t value) {
  if (value > kMaxValue) value = kMaxValue;
  if (value < kSub) return static_cast<size_t>(value);
  const uint64_t w = static_cast<uint64_t>(std::bit_width(value)) - 1;  // floor log2
  const uint64_t sub = (value >> (w - kSubBits)) & (kSub - 1);
  return static_cast<size_t>(kSub + (w - kSubBits) * kSub + sub);
}

uint64_t HistogramLayout::BucketMin(size_t index) {
  if (index < kSub) return index;
  const uint64_t k = static_cast<uint64_t>(index) - kSub;
  const uint64_t w = kSubBits + k / kSub;
  const uint64_t sub = k % kSub;
  const uint64_t scale = 1ull << (w - kSubBits);
  return (1ull << w) + sub * scale;
}

uint64_t HistogramLayout::BucketMax(size_t index) {
  if (index < kSub) return index;
  const uint64_t k = static_cast<uint64_t>(index) - kSub;
  const uint64_t w = kSubBits + k / kSub;
  const uint64_t scale = 1ull << (w - kSubBits);
  return BucketMin(index) + scale - 1;
}

uint64_t HistogramData::Count() const {
  uint64_t count = 0;
  for (uint64_t bucket : buckets) count += bucket;
  return count;
}

uint64_t HistogramData::Quantile(double q) const {
  const uint64_t count = Count();
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return HistogramLayout::BucketMax(i);
  }
  return HistogramLayout::kMaxValue;  // unreachable: cumulative == count
}

}  // namespace asti
