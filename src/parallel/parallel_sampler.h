// (m)RR-set generation with a deterministic result at every pool size.
//
// Set first_index + i of a call owns the RNG stream
// base.Split(first_index + i), so its content is a pure function of
// (base, index) — independent of the thread that generates it, of the pool
// size, and of whether there is a pool at all. A call cuts its range into
// contiguous blocks (ThreadPool::ParallelBlocks, several per thread, so
// the caller and the workers share the batch out as they get to it); each
// block's sets go into that block's RrSetBuffer, and the buffers are
// merged into the output RrCollection in block order, which is index
// order. Without a pool the one block runs on the calling thread through
// the same buffer and merge. The collection a call produces is therefore
// bit-identical for ANY pool, including none.
//
// Traversal-cost counters accumulate per thread and are merged on join, so
// SamplerCost totals stay exact for the Lemma 3.8/3.9 benches.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_buffer.h"
#include "sampling/rr_collection.h"
#include "sampling/rr_set.h"
#include "sampling/sampler_cache.h"
#include "sampling/shared_collection.h"
#include "util/bit_vector.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace asti {

/// Index-keyed RR/mRR generation, fanned across a ThreadPool when one is
/// given and run on the calling thread otherwise.
class ParallelRrSampler {
 public:
  /// The graph and pool must outlive the sampler; a null `pool` generates
  /// on the calling thread. Traversal scratch (visited sets) is allocated
  /// once per pool thread, or once without a pool; staging buffers, one
  /// per block, keep their capacity across calls.
  /// A non-null `cancel` is polled at generation-stride boundaries inside
  /// every call: once it fires, threads stop traversing and the call
  /// merges whatever was staged, leaving the output short of `count` (the
  /// caller unwinds and discards it). Calls that complete without the
  /// scope firing are bit-identical to an uncancellable run.
  /// A non-null `profile` (not owned) accrues sampling wall time, sets
  /// generated, and collection footprint per call; it never feeds back
  /// into generation, so results are identical with or without it.
  ParallelRrSampler(const DirectedGraph& graph, DiffusionModel model, ThreadPool* pool,
                    const CancelScope* cancel = nullptr,
                    RequestProfile* profile = nullptr);

  /// Cumulative traversal cost across all calls since construction / the
  /// last ResetCost(); exact (merged from workers after every call).
  const SamplerCost& cost() const { return cost_; }
  void ResetCost() { cost_ = SamplerCost{}; }

  /// Appends single-root RR-sets for global indices
  /// [first_index, first_index + count) to `out`. Set first_index + i draws
  /// its stream from base.Split(first_index + i); no draws are consumed
  /// from any caller RNG.
  void GenerateIndexed(const std::vector<NodeId>& candidates, const BitVector* active,
                       size_t first_index, size_t count, RrCollection& out,
                       const Rng& base);

  /// mRR variant; set i samples its root count from `root_size` out of its
  /// own indexed stream before traversing.
  void GenerateMrrIndexed(const std::vector<NodeId>& candidates, const BitVector* active,
                          const RootSizeSampler& root_size, size_t first_index,
                          size_t count, RrCollection& out, const Rng& base);

 private:
  // Traversal scratch of one ParallelBlocks slot (the thread running a
  // block); what a set contains never depends on which slot made it.
  // Slots and blocks are filled by different threads at once, so each
  // sits on its own cache line.
  struct alignas(64) Worker {
    Worker(const DirectedGraph& graph, DiffusionModel model)
        : rr(graph, model), mrr(graph, model) {}
    RrSampler rr;
    MrrSampler mrr;
  };
  struct alignas(64) BlockBuffer {
    RrSetBuffer sets;
  };

  // Fans `count` sets with per-set streams base.Split(first_index + i)
  // across the pool via `generate_one(worker, buffer, set_rng)`, then
  // merges the first `num_blocks` block buffers and the costs.
  template <class GenerateOne>
  void RunIndexed(size_t first_index, size_t count, RrCollection& out, const Rng& base,
                  GenerateOne&& generate_one);

  void MergeInto(RrCollection& out, size_t num_blocks);

  ThreadPool* pool_;           // not owned; may be null
  const CancelScope* cancel_;  // not owned; may be null
  RequestProfile* profile_;    // not owned; may be null
  std::vector<std::unique_ptr<Worker>> workers_;  // one per slot
  std::vector<BlockBuffer> blocks_;               // staging, one per block
  SamplerCost cost_;
};

/// The sets one doubling loop certifies against, served rung by rung:
/// ladder(want) returns a view of EXACTLY the first `want` sets (each call
/// asking for at least as many as the last), so the loop's decisions depend
/// only on its ladder, never on where the sets came from. The view is
/// shorter than `want` only when cancellation fired mid-generation; the
/// caller must then unwind.
using LadderSource = std::function<CollectionView(size_t want)>;

/// Reads the sealed prefixes of `key`'s entry in `cache`. Only full-residual
/// rounds may use it (their distribution is request-independent), and it
/// consumes no request-RNG draws (see sampling/sampler_cache.h). `cache`
/// must outlive the source.
LadderSource CachedLadder(SamplerCache& cache, const SamplerCacheKey& key,
                          ThreadPool* pool, const CancelScope* cancel,
                          RequestProfile* profile);

/// Clears `owned` and grows it through `sampler`: each extension is one
/// index-derived batch with first_index = 0 and base = rng.Split(), so
/// `rng` advances one draw per extension at any pool size. Roots come from
/// `candidates`, traversal skips `active` (nullable), and a non-null
/// `root_size` samples mRR-sets instead of single-root RR-sets. Every
/// argument must outlive the source.
LadderSource OwnedLadder(ParallelRrSampler& sampler, RrCollection& owned,
                         const std::vector<NodeId>& candidates, const BitVector* active,
                         const RootSizeSampler* root_size, Rng& rng);

}  // namespace asti
