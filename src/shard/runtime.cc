#include "shard/runtime.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "parallel/parallel_sampler.h"
#include "util/check.h"

namespace asti {

ShardRuntime::ShardRuntime(std::shared_ptr<const DirectedGraph> graph,
                           std::shared_ptr<const ShardTopology> topology,
                           size_t num_threads)
    : graph_(std::move(graph)), topology_(std::move(topology)) {
  ASM_CHECK(graph_ != nullptr && topology_ != nullptr);
  const uint32_t num_shards = topology_->num_shards();
  ASM_CHECK(num_shards >= 1 && num_shards <= kMaxShards);
  ASM_CHECK(topology_->plan.num_nodes == graph_->NumNodes() &&
            topology_->plan.num_edges == graph_->NumEdges())
      << "shard topology does not describe this graph";
  const size_t per_shard =
      std::max<size_t>(1, ResolveThreadCount(num_threads) / num_shards);
  pools_.reserve(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    pools_.push_back(std::make_unique<ThreadPool>(per_shard));
  }
  set_counts_ = std::make_unique<std::atomic<uint64_t>[]>(num_shards);
}

void ShardRuntime::Generate(const SamplerCacheKey& key, const Rng& base,
                            const RootSizeSampler* root_size,
                            const std::vector<NodeId>& candidates, size_t first,
                            size_t count, RrCollection& staging,
                            const CancelScope* cancel) const {
  // A run is a maximal block-aligned slice of [first, first + count) owned
  // by one shard. Runs are recorded in global index order — the order the
  // merge below must reproduce.
  struct Run {
    size_t first;
    size_t count;
    uint32_t shard;
    size_t delivered = 0;
  };
  const uint32_t num_shards = topology_->num_shards();
  std::vector<Run> runs;
  runs.reserve(count / kShardBlockSize + 2);
  for (size_t i = first; i < first + count;) {
    const size_t block_end = (i / kShardBlockSize + 1) * kShardBlockSize;
    const size_t run_end = std::min(first + count, block_end);
    runs.push_back(
        Run{i, run_end - i, static_cast<uint32_t>((i / kShardBlockSize) % num_shards)});
    i = run_end;
  }
  std::vector<std::vector<size_t>> by_shard(num_shards);
  for (size_t r = 0; r < runs.size(); ++r) by_shard[runs[r].shard].push_back(r);

  // One staging collection PER SHARD, not per run: every RrCollection
  // carries an n-sized coverage array, so per-run staging would cost
  // O(runs × n) memory for nothing.
  std::vector<std::unique_ptr<RrCollection>> shard_staging(num_shards);

  auto drive_shard = [&](uint32_t k) {
    shard_staging[k] = std::make_unique<RrCollection>(graph_->NumNodes());
    RrCollection& out = *shard_staging[k];
    ParallelRrSampler sampler(*graph_, key.model, pools_[k].get(), cancel,
                              /*profile=*/nullptr);
    for (size_t r : by_shard[k]) {
      Run& run = runs[r];
      const size_t before = out.NumSets();
      if (key.kind == SamplerCacheKey::Kind::kRr) {
        sampler.GenerateIndexed(candidates, nullptr, run.first, run.count, out, base);
      } else {
        sampler.GenerateMrrIndexed(candidates, nullptr, *root_size, run.first,
                                   run.count, out, base);
      }
      run.delivered = out.NumSets() - before;
      // Under-delivery means cancellation fired; everything from this run
      // on will be dropped by the merge, so stop burning cycles.
      if (run.delivered < run.count) break;
    }
  };

  // One coordinator thread per shard with work; the first active shard
  // runs on the calling thread (K = 1 spawns nothing).
  std::vector<uint32_t> active;
  active.reserve(num_shards);
  for (uint32_t k = 0; k < num_shards; ++k) {
    if (!by_shard[k].empty()) active.push_back(k);
  }
  std::vector<std::thread> coordinators;
  coordinators.reserve(active.empty() ? 0 : active.size() - 1);
  for (size_t a = 1; a < active.size(); ++a) {
    coordinators.emplace_back([&drive_shard, k = active[a]] { drive_shard(k); });
  }
  if (!active.empty()) drive_shard(active[0]);
  for (std::thread& t : coordinators) t.join();

  // Index-ordered merge: append each complete run's slice of its shard's
  // staging in global order. The first incomplete run truncates the merge
  // — the result is a short contiguous prefix, which ExtendTo discards,
  // never a gap.
  std::vector<size_t> consumed(num_shards, 0);
  for (const Run& run : runs) {
    if (run.delivered < run.count) break;
    staging.AppendBatch(*shard_staging[run.shard], consumed[run.shard], run.count);
    consumed[run.shard] += run.count;
    set_counts_[run.shard].fetch_add(run.count, std::memory_order_relaxed);
  }
}

std::vector<uint64_t> ShardRuntime::SetCounts() const {
  std::vector<uint64_t> counts(topology_->num_shards());
  for (size_t k = 0; k < counts.size(); ++k) {
    counts[k] = set_counts_[k].load(std::memory_order_relaxed);
  }
  return counts;
}

}  // namespace asti
