#include "coverage/inverted_index.h"

#include <algorithm>

#include "util/check.h"

namespace asti {

namespace {

// Below this pool size the two extra passes + per-chunk histograms cost
// more than the sequential fill; the output is identical either way.
constexpr size_t kMinParallelEntries = 1 << 14;

// The per-chunk histograms and their merge cost O(chunks · n); only fan
// out when the pool is dense enough (mean coverage per node ≥ this) for
// the parallel entry scans to dominate that overhead. Measured on IC mRR
// sets of the youtube surrogate (n = 56,000, η = 3 % of n; Release, 4
// vCPUs; bench_micro_sampling's BM_InvertedIndexBuild, medians of 5),
// sequential against a pool of 4: 0.92 against 1.9 ms at mean coverage
// 4.1 (1,252 sets), 2.4 against 3.4 ms at 8.2, 4.3 against 4.2 ms at 12.3
// (3,756 sets; 5.3–5.5 against 5.2–5.3 ms in three later rounds), and
// 7.1–7.2 against 5.4–6.1 ms at 16.4 (5,008 sets). The two cross near 12,
// so the gate sits there.
constexpr size_t kMinMeanCoverage = 12;

}  // namespace

InvertedIndex BuildInvertedIndex(const CollectionView& collection, ThreadPool* pool) {
  const NodeId n = collection.num_nodes();
  const size_t num_sets = collection.NumSets();

  InvertedIndex index;
  index.offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) index.offsets[v + 1] = collection.Coverage(v);
  for (NodeId v = 0; v < n; ++v) index.offsets[v + 1] += index.offsets[v];
  index.sets.resize(collection.TotalEntries());

  const bool parallel = pool != nullptr && pool->NumThreads() > 1 &&
                        collection.TotalEntries() >= kMinParallelEntries &&
                        collection.TotalEntries() >=
                            kMinMeanCoverage * static_cast<size_t>(n);
  if (!parallel) {
    std::vector<size_t> cursor(index.offsets.begin(), index.offsets.end() - 1);
    for (size_t s = 0; s < num_sets; ++s) {
      for (NodeId v : collection.Set(s)) {
        index.sets[cursor[v]++] = static_cast<uint32_t>(s);
      }
    }
    return index;
  }

  // Parallel counting sort: chunk c owns a contiguous set range. Pass 1
  // histograms each chunk's per-node entry counts; a sequential exclusive
  // scan turns the histograms into per-(chunk, node) write cursors (chunk
  // c's entries for v start after chunks < c's); pass 2 rescans and writes.
  // ParallelFor chunk boundaries depend only on (num_sets, NumThreads), so
  // both passes see identical ranges, and ascending (chunk, set-in-chunk)
  // order equals ascending set order — the sequential layout exactly.
  const size_t num_chunks = std::min(num_sets, pool->NumThreads());
  std::vector<std::vector<size_t>> cursors(num_chunks);
  pool->ParallelFor(num_sets, [&](size_t chunk, size_t begin, size_t end) {
    std::vector<size_t>& counts = cursors[chunk];
    counts.assign(n, 0);  // allocated in the worker: first-touch locality
    for (size_t s = begin; s < end; ++s) {
      for (NodeId v : collection.Set(s)) ++counts[v];
    }
  });
  for (NodeId v = 0; v < n; ++v) {
    size_t cursor = index.offsets[v];
    for (size_t c = 0; c < num_chunks; ++c) {
      // ParallelFor's ceil division can leave trailing chunks undispatched
      // (e.g. 17 sets on 8 threads run as 6 chunks of 3); their histograms
      // were never allocated and contribute nothing.
      if (cursors[c].empty()) continue;
      const size_t count = cursors[c][v];
      cursors[c][v] = cursor;
      cursor += count;
    }
    ASM_DCHECK(cursor == index.offsets[v + 1]);
  }
  pool->ParallelFor(num_sets, [&](size_t chunk, size_t begin, size_t end) {
    std::vector<size_t>& cursor = cursors[chunk];
    for (size_t s = begin; s < end; ++s) {
      for (NodeId v : collection.Set(s)) {
        index.sets[cursor[v]++] = static_cast<uint32_t>(s);
      }
    }
  });
  return index;
}

}  // namespace asti
