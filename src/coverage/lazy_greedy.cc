#include "coverage/lazy_greedy.h"

#include <algorithm>

#include "coverage/inverted_index.h"
#include "util/bit_vector.h"
#include "util/check.h"

namespace asti {

namespace {

// A re-evaluation batch is dispatched to the pool only when it carries at
// least this many inverted-index entry reads (~tens of µs of scanning);
// smaller batches run inline, where the chunk fan-out round-trip would
// cost more than the scans it parallelizes.
constexpr size_t kMinParallelWork = size_t{1} << 16;

struct HeapEntry {
  uint32_t gain;
  NodeId node;
  uint32_t round_evaluated;  // lazy-evaluation timestamp

  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    return node > other.node;  // ties: prefer the lowest node id
  }
};

}  // namespace

MaxCoverageResult LazyGreedyMaxCoverage(const CollectionView& collection, NodeId budget,
                                        const std::vector<NodeId>* candidates,
                                        ThreadPool* pool, const CancelScope* cancel,
                                        RequestProfile* profile) {
  PhaseSpan span(profile, RequestPhase::kCoverage);
  ASM_CHECK(budget >= 1);
  const NodeId n = collection.num_nodes();
  MaxCoverageResult result;

  const InvertedIndex index = BuildInvertedIndex(collection, pool);

  // One heap entry per node, deduplicated (see DedupeCandidates — a
  // duplicate in `candidates` would otherwise be selected twice).
  // Uniqueness also makes the heap's (gain, node) comparator a total order,
  // so the pop sequence — and hence the selection — is independent of push
  // order. The heap is a plain vector (std::make_heap) so that the
  // zero-gain fill below can read the entries left in it.
  std::vector<HeapEntry> heap;
  if (candidates == nullptr) {
    heap.reserve(n);
    for (NodeId v = 0; v < n; ++v) heap.push_back({collection.Coverage(v), v, 0});
  } else {
    for (NodeId v : DedupeCandidates(*candidates, n)) {
      heap.push_back({collection.Coverage(v), v, 0});
    }
  }
  const size_t pool_size = heap.size();
  std::make_heap(heap.begin(), heap.end());
  auto pop = [&heap] {
    std::pop_heap(heap.begin(), heap.end());
    const HeapEntry top = heap.back();
    heap.pop_back();
    return top;
  };

  BitVector covered(collection.NumSets());
  const size_t picks = std::min<size_t>(budget, pool_size);
  uint32_t round = 0;
  auto fresh_gain = [&](NodeId v) {
    uint32_t gain = 0;
    const auto [begin, end] = index.Range(v);
    for (size_t i = begin; i < end; ++i) {
      if (!covered.Get(index.sets[i])) ++gain;
    }
    return gain;
  };

  // Sequential CELF drains one stale entry at a time. The parallel path
  // drains them in batches that double per consecutive drain (reset after
  // each selection) — total re-evaluations stay within ~2× the sequential
  // CELF count — re-evaluates each batch concurrently (`covered` is
  // read-only between selections), and reinserts. Submodularity keeps every
  // cached gain an upper bound, so whenever a fresh entry surfaces on top it
  // dominates all cached bounds ≥ all true gains, and equal-gain lower-id
  // nodes would sort above it; the pick is therefore always the
  // (gain, lowest id) argmax, identical for every batch size / thread count.
  const bool parallel = pool != nullptr && pool->NumThreads() > 1;
  const size_t avg_list =
      1 + index.sets.size() / std::max<size_t>(1, static_cast<size_t>(n));
  const size_t min_parallel_batch =
      std::max<size_t>(64, kMinParallelWork / avg_list);
  const size_t base_drain = parallel ? std::max<size_t>(32, 8 * pool->NumThreads()) : 1;
  size_t drain = base_drain;
  std::vector<HeapEntry> batch;
  while (result.selected.size() < picks && !heap.empty()) {
    // Polled per heap round (a pick or a stale-drain batch).
    if (Fired(cancel)) return result;
    if (heap.front().gain == 0) {
      // Every true gain is 0 (cached gains bound them from above), and
      // CELF would pop the rest in ascending id: append that order.
      BitVector remaining(n);
      for (const HeapEntry& entry : heap) remaining.Set(entry.node);
      for (NodeId v = 0; result.selected.size() < picks; ++v) {
        if (!remaining.Get(v)) continue;
        result.selected.push_back(v);
        result.marginal_coverage.push_back(0);
      }
      break;
    }
    if (heap.front().round_evaluated == round) {
      const HeapEntry top = pop();
      result.selected.push_back(top.node);
      result.marginal_coverage.push_back(top.gain);
      result.covered_sets += top.gain;
      const auto [begin, end] = index.Range(top.node);
      for (size_t i = begin; i < end; ++i) covered.Set(index.sets[i]);
      ++round;
      drain = base_drain;
      continue;
    }
    // Drain up to `drain` stale entries; stop early at a fresh top (it is
    // already the next pick — see above).
    batch.clear();
    while (!heap.empty() && batch.size() < drain &&
           heap.front().round_evaluated != round) {
      batch.push_back(pop());
    }
    if (parallel && batch.size() >= min_parallel_batch) {
      pool->ParallelFor(batch.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) batch[i].gain = fresh_gain(batch[i].node);
      });
    } else {
      for (HeapEntry& entry : batch) entry.gain = fresh_gain(entry.node);
    }
    for (HeapEntry& entry : batch) {
      entry.round_evaluated = round;
      heap.push_back(entry);
      std::push_heap(heap.begin(), heap.end());
    }
    // Geometric growth bounds total re-evaluations per pick by ~2× the
    // sequential CELF count while giving each dispatch enough work. The
    // sequential path stays strictly one-at-a-time (classic CELF).
    if (parallel) drain = std::min(drain * 2, heap.size() + 1);
  }
  return result;
}

}  // namespace asti
