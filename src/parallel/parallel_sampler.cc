#include "parallel/parallel_sampler.h"

#include <algorithm>

namespace asti {

ParallelRrSampler::ParallelRrSampler(const DirectedGraph& graph, DiffusionModel model,
                                     ThreadPool* pool, const CancelScope* cancel,
                                     RequestProfile* profile)
    : pool_(pool), cancel_(cancel), profile_(profile) {
  const size_t slots = pool != nullptr ? pool->NumThreads() : 1;
  workers_.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    workers_.push_back(std::make_unique<Worker>(graph, model));
  }
}

void ParallelRrSampler::MergeInto(RrCollection& out, size_t num_blocks) {
  size_t total_sets = 0;
  size_t total_entries = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    total_sets += blocks_[b].sets.NumSets();
    total_entries += blocks_[b].sets.TotalEntries();
  }
  out.Reserve(total_sets, total_entries);
  for (size_t b = 0; b < num_blocks; ++b) out.AppendBatch(blocks_[b].sets);
  for (auto& worker : workers_) {
    cost_.nodes_visited += worker->rr.cost().nodes_visited + worker->mrr.cost().nodes_visited;
    cost_.edges_examined += worker->rr.cost().edges_examined + worker->mrr.cost().edges_examined;
    worker->rr.ResetCost();
    worker->mrr.ResetCost();
  }
  NoteSampling(profile_, total_sets, out.MemoryBytes());
}

template <class GenerateOne>
void ParallelRrSampler::RunIndexed(size_t first_index, size_t count, RrCollection& out,
                                   const Rng& base, GenerateOne&& generate_one) {
  if (count == 0) return;
  // Profiling reads the clock only at call boundaries; generation itself
  // never observes the profile, so sampled content is unchanged by it.
  PhaseSpan span(profile_, RequestPhase::kSampling);
  // Several blocks per thread: when one thread is descheduled, the others
  // take the blocks it would have run, so it holds up at most its current
  // block instead of a fixed quarter of the batch.
  constexpr size_t kBlocksPerThread = 8;
  const size_t max_blocks =
      pool_ != nullptr ? std::min(count, kBlocksPerThread * pool_->NumThreads()) : 1;
  if (blocks_.size() < max_blocks) blocks_.resize(max_blocks);
  for (size_t b = 0; b < max_blocks; ++b) blocks_[b].sets.Clear();
  // Cancellation polls every kCancelStride sets (and at block entry): one
  // atomic load plus a clock read when a deadline is set, amortized over
  // ~µs-scale traversals. A fired scope makes each block stop generating;
  // the partial staging buffers still merge (structurally valid sets), and
  // the caller detects the short output and discards it.
  constexpr size_t kCancelStride = 64;
  auto run_block = [&](size_t slot, size_t block, size_t begin, size_t end) {
    Worker& worker = *workers_[slot];
    RrSetBuffer& buffer = blocks_[block].sets;
    for (size_t i = begin; i < end; ++i) {
      if ((i - begin) % kCancelStride == 0 && Fired(cancel_)) return;
      Rng set_rng = base.Split(first_index + i);
      generate_one(worker, buffer, set_rng);
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelBlocks(count, max_blocks, run_block);
  } else {
    run_block(0, 0, 0, count);
  }
  MergeInto(out, max_blocks);
}

void ParallelRrSampler::GenerateIndexed(const std::vector<NodeId>& candidates,
                                        const BitVector* active, size_t first_index,
                                        size_t count, RrCollection& out, const Rng& base) {
  RunIndexed(first_index, count, out, base,
             [&](Worker& worker, RrSetBuffer& buffer, Rng& set_rng) {
               worker.rr.Generate(candidates, active, buffer, set_rng);
             });
}

void ParallelRrSampler::GenerateMrrIndexed(const std::vector<NodeId>& candidates,
                                           const BitVector* active,
                                           const RootSizeSampler& root_size,
                                           size_t first_index, size_t count,
                                           RrCollection& out, const Rng& base) {
  RunIndexed(first_index, count, out, base,
             [&](Worker& worker, RrSetBuffer& buffer, Rng& set_rng) {
               const NodeId num_roots = root_size.Sample(set_rng);
               worker.mrr.Generate(candidates, active, num_roots, buffer, set_rng);
             });
}

LadderSource CachedLadder(SamplerCache& cache, const SamplerCacheKey& key,
                          ThreadPool* pool, const CancelScope* cancel,
                          RequestProfile* profile) {
  return [&cache, key, pool, cancel, profile](size_t want) {
    return cache.Acquire(key, want, pool, cancel, profile);
  };
}

LadderSource OwnedLadder(ParallelRrSampler& sampler, RrCollection& owned,
                         const std::vector<NodeId>& candidates, const BitVector* active,
                         const RootSizeSampler* root_size, Rng& rng) {
  owned.Clear();
  return [&sampler, &owned, &candidates, active, root_size, &rng](size_t want) {
    if (want > owned.NumSets()) {
      const size_t count = want - owned.NumSets();
      const Rng base = rng.Split();
      if (root_size != nullptr) {
        sampler.GenerateMrrIndexed(candidates, active, *root_size, 0, count, owned, base);
      } else {
        sampler.GenerateIndexed(candidates, active, 0, count, owned, base);
      }
    }
    return CollectionView(owned);
  };
}

}  // namespace asti
