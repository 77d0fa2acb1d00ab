#include "coverage/max_coverage.h"

#include <algorithm>
#include <cmath>

#include "util/bit_vector.h"
#include "util/check.h"

namespace asti {

namespace {

// Below this scan size the chunk fan-out costs more than the scan itself.
constexpr size_t kMinParallelScan = 1 << 12;

}  // namespace

std::vector<NodeId> DedupeCandidates(const std::vector<NodeId>& candidates, NodeId n) {
  std::vector<NodeId> unique;
  unique.reserve(candidates.size());
  BitVector seen(n);
  for (NodeId v : candidates) {
    ASM_CHECK(v < n) << "candidate out of range";
    if (seen.Get(v)) continue;
    seen.Set(v);
    unique.push_back(v);
  }
  return unique;
}

NodeId ArgMaxCoverage(const CollectionView& collection, ThreadPool* pool,
                      RequestProfile* profile) {
  PhaseSpan span(profile, RequestPhase::kCoverage);
  ASM_CHECK(collection.num_nodes() > 0);
  const std::vector<uint32_t>& coverage = collection.CoverageCounts();
  const size_t count = coverage.size();
  // Chunk-local scans use the same (coverage, lowest id) rule as the merge,
  // so the winner matches a single ascending scan for any chunking.
  auto better = [&](NodeId v, NodeId best) {
    return best == kInvalidNode || coverage[v] > coverage[best] ||
           (coverage[v] == coverage[best] && v < best);
  };
  auto scan = [&](size_t begin, size_t end) {
    NodeId best = kInvalidNode;
    for (size_t i = begin; i < end; ++i) {
      if (better(static_cast<NodeId>(i), best)) best = static_cast<NodeId>(i);
    }
    return best;
  };
  if (pool == nullptr || pool->NumThreads() <= 1 || count < kMinParallelScan) {
    return scan(0, count);
  }
  std::vector<NodeId> chunk_best(std::min(count, pool->NumThreads()), kInvalidNode);
  pool->ParallelFor(count, [&](size_t chunk, size_t begin, size_t end) {
    chunk_best[chunk] = scan(begin, end);
  });
  NodeId best = kInvalidNode;
  for (NodeId v : chunk_best) {
    if (v != kInvalidNode && better(v, best)) best = v;
  }
  return best;
}

double GreedyCoverageRatio(NodeId budget) {
  ASM_CHECK(budget >= 1);
  if (budget == 1) return 1.0;
  const double b = static_cast<double>(budget);
  return 1.0 - std::pow(1.0 - 1.0 / b, b);
}

}  // namespace asti
