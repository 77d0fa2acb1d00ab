#include "parallel/parallel_sampler.h"

namespace asti {

ParallelRrSampler::ParallelRrSampler(const DirectedGraph& graph, DiffusionModel model,
                                     ThreadPool* pool, const CancelScope* cancel,
                                     RequestProfile* profile)
    : pool_(pool), cancel_(cancel), profile_(profile) {
  const size_t chunks = pool != nullptr ? pool->NumThreads() : 1;
  workers_.reserve(chunks);
  for (size_t i = 0; i < chunks; ++i) {
    workers_.push_back(std::make_unique<Worker>(graph, model));
  }
}

void ParallelRrSampler::MergeInto(RrCollection& out) {
  size_t total_sets = 0;
  size_t total_entries = 0;
  for (const auto& worker : workers_) {
    total_sets += worker->buffer.NumSets();
    total_entries += worker->buffer.TotalEntries();
  }
  out.Reserve(total_sets, total_entries);
  for (auto& worker : workers_) {
    out.AppendBatch(worker->buffer);
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
  for (auto& worker : workers_) worker->buffer.Clear();
  // Cancellation polls every kCancelStride sets (and at chunk entry): one
  // atomic load plus a clock read when a deadline is set, amortized over
  // ~µs-scale traversals. A fired scope makes each chunk stop generating;
  // the partial staging buffers still merge (structurally valid sets), and
  // the caller detects the short output and discards it.
  constexpr size_t kCancelStride = 64;
  auto run_chunk = [&](size_t chunk, size_t begin, size_t end) {
    Worker& worker = *workers_[chunk];
    for (size_t i = begin; i < end; ++i) {
      if ((i - begin) % kCancelStride == 0 && Fired(cancel_)) return;
      Rng set_rng = base.Split(first_index + i);
      generate_one(worker, set_rng);
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(count, run_chunk);
  } else {
    run_chunk(0, 0, count);
  }
  MergeInto(out);
}

void ParallelRrSampler::GenerateIndexed(const std::vector<NodeId>& candidates,
                                        const BitVector* active, size_t first_index,
                                        size_t count, RrCollection& out, const Rng& base) {
  RunIndexed(first_index, count, out, base, [&](Worker& worker, Rng& set_rng) {
    worker.rr.Generate(candidates, active, worker.buffer, set_rng);
  });
}

void ParallelRrSampler::GenerateMrrIndexed(const std::vector<NodeId>& candidates,
                                           const BitVector* active,
                                           const RootSizeSampler& root_size,
                                           size_t first_index, size_t count,
                                           RrCollection& out, const Rng& base) {
  RunIndexed(first_index, count, out, base, [&](Worker& worker, Rng& set_rng) {
    const NodeId num_roots = root_size.Sample(set_rng);
    worker.mrr.Generate(candidates, active, num_roots, worker.buffer, set_rng);
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
