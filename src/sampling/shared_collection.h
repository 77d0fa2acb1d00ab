// Engine-owned, grow-only RR collections with immutable read views.
//
// PR 7 moves collection ownership from per-request to engine-owned: many
// requests against the same (graph epoch, model, weight-scheme) snapshot
// read one SharedRrCollection instead of each regenerating their own sets.
// The structure is the OPIM-C reuse argument lifted across requests: RR/mRR
// sets whose distribution does not depend on request state (full-residual
// sampling — round 1 of every adaptive run, and the whole of ATEUC /
// Bisection) are exchangeable, so any certified prefix of a shared stream
// is as good as a fresh collection of the same length.
//
// Two types:
//
//   * CollectionView — an immutable borrowed/snapshot read surface with the
//     same read API as RrCollection (NumSets / Set / Coverage /
//     CoverageCounts / TotalEntries). Coverage solvers operate on views;
//     an owned RrCollection converts implicitly (a non-owning borrow), so
//     the per-request residual paths are untouched. Views over a shared
//     collection hold shared_ptr pins on the storage they reference: a
//     GraphCatalog::Swap or Retire — or further growth of the shared
//     collection — never invalidates a live view.
//
//   * SharedRrCollection — epoch-keyed (one per GraphState, which is keyed
//     by (name, epoch)), grow-only chunked storage with an atomically
//     published *sealed prefix*. Readers take a view of EXACTLY the first
//     P sealed sets; writers extend by generating the shortfall into a
//     private staging collection and publishing it as one immutable chunk.
//     Extensions that under-deliver (cooperative cancellation fired
//     mid-generation) are discarded whole — a partial or index-holed batch
//     can never poison the shared stream.
//
// Determinism: the shared collection stores WHAT was generated; the
// sampler-cache layer (sampler_cache.h) guarantees set i's content is a
// pure function of (graph snapshot, cache key, i) by deriving per-set RNG
// streams from the collection index, never from request seeds. Under that
// contract a view of the first P sets is bit-identical to what a fresh
// request would have sampled, which is what extends the engine's
// determinism guarantee to "cached vs freshly sampled".

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/types.h"
#include "sampling/rr_collection.h"
#include "util/check.h"

namespace asti {

/// Immutable read view over a prefix of (m)RR-sets: either a non-owning
/// borrow of one RrCollection, or a pinned snapshot of a
/// SharedRrCollection's sealed prefix (possibly spanning several chunks).
/// Value type; copying copies the pins. The read API mirrors RrCollection,
/// so coverage solvers are written once against views.
class CollectionView {
 public:
  CollectionView() = default;

  /// Implicit non-owning borrow of a whole owned collection — the bridge
  /// keeping every `Solve`-path call site (`LazyGreedyMaxCoverage(collection,
  /// ...)`) source-compatible after the solvers moved to views. The
  /// collection must outlive the view and not grow while viewed.
  CollectionView(const RrCollection& collection)  // NOLINT(google-explicit-constructor)
      : coverage_(&collection.CoverageCounts()),
        num_nodes_(collection.num_nodes()),
        num_sets_(collection.NumSets()),
        total_entries_(collection.TotalEntries()),
        memory_bytes_(collection.MemoryBytes()) {
    parts_.push_back(Part{0, collection.Offsets().data(), collection.Pool().data(), nullptr});
  }

  NodeId num_nodes() const { return num_nodes_; }
  size_t NumSets() const { return num_sets_; }
  /// Σ |R| over the viewed prefix.
  size_t TotalEntries() const { return total_entries_; }
  /// Resident bytes of the storage backing this view (shared chunks are
  /// counted whole — they are resident regardless of the prefix length).
  size_t MemoryBytes() const { return memory_bytes_; }

  /// Nodes of the i-th viewed set. Single-part views (borrows, and shared
  /// prefixes inside the first chunk) take one predictable branch before
  /// delegating — the "zero overhead vs direct RrCollection access" path
  /// pinned by bench_micro_sampling.
  std::span<const NodeId> Set(size_t i) const {
    ASM_DCHECK(i < num_sets_);
    const Part* part = &parts_.back();
    if (i < part->first_set) part = &PartFor(i);
    const size_t local = i - part->first_set;
    return {part->pool + part->offsets[local], part->pool + part->offsets[local + 1]};
  }

  /// Λ(v) over the viewed prefix only.
  uint32_t Coverage(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    return (*coverage_)[v];
  }

  /// Per-node coverage counts of the viewed prefix (size num_nodes()).
  const std::vector<uint32_t>& CoverageCounts() const { return *coverage_; }

 private:
  friend class SharedRrCollection;

  // A part references flat set storage directly — a local offsets array
  // (part set i is pool[offsets[i] .. offsets[i+1]), offsets[0] == 0) plus
  // the node pool — with a type-erased keepalive. The same representation
  // serves heap RrCollection chunks and mmap'd snapshot sections, so the
  // hot Set(i) path never branches on where the bytes live.
  struct Part {
    size_t first_set = 0;  // global index of the part's set 0
    const uint64_t* offsets = nullptr;
    const NodeId* pool = nullptr;
    std::shared_ptr<const void> owner;  // null for borrows
  };

  const Part& PartFor(size_t i) const;

  std::vector<Part> parts_;
  const std::vector<uint32_t>* coverage_ = nullptr;
  std::shared_ptr<const std::vector<uint32_t>> coverage_owner_;
  NodeId num_nodes_ = 0;
  size_t num_sets_ = 0;
  size_t total_entries_ = 0;
  size_t memory_bytes_ = 0;
};

/// Grow-only shared collection with an atomically published sealed prefix.
///
/// Storage is chunked: each successful extension publishes one immutable
/// RrCollection chunk, so readers never observe reallocation and a view's
/// pins keep exactly the chunks it spans alive. Cumulative coverage is
/// checkpointed at every chunk boundary; coverage for an intra-chunk
/// prefix P is derived on demand (copy the nearest boundary checkpoint,
/// replay the partial chunk's sets) and memoized with bounded count.
///
/// Concurrency: SealedSets() is one relaxed atomic load. Prefix() takes a
/// short mutex to snapshot the chunk list / checkpoint maps. ExtendTo()
/// serializes writers on a separate extension mutex held across the (long)
/// generation, so readers are never blocked behind sampling; the chunk
/// publish itself is a brief critical section on the reader mutex.
class SharedRrCollection {
 public:
  explicit SharedRrCollection(NodeId num_nodes) : num_nodes_(num_nodes) {}

  SharedRrCollection(const SharedRrCollection&) = delete;
  SharedRrCollection& operator=(const SharedRrCollection&) = delete;

  NodeId num_nodes() const { return num_nodes_; }

  /// Sets currently sealed (readable); monotone non-decreasing.
  size_t SealedSets() const { return sealed_.load(std::memory_order_acquire); }

  /// Resident bytes: all chunk storage plus coverage checkpoints.
  size_t MemoryBytes() const;

  /// View of EXACTLY the first `prefix` sealed sets (coverage counts
  /// included). Requires prefix <= SealedSets(). prefix == 0 yields an
  /// empty view.
  CollectionView Prefix(size_t prefix) const;

  /// Grows the sealed prefix to at least `target`. `generate` must append
  /// exactly `count` sets — those with global indices [first, first+count)
  /// — to `staging`; an under-delivering callback (cooperative cancellation
  /// fired mid-batch) makes the whole extension be discarded. Returns true
  /// iff SealedSets() >= target on exit. Concurrent callers serialize; a
  /// caller that lost the race to a same-target extender returns true
  /// without generating.
  bool ExtendTo(size_t target,
                const std::function<void(size_t first, size_t count,
                                         RrCollection& staging)>& generate);

  /// Installs an already-generated sealed prefix (a persisted collection
  /// mapped from a snapshot file) as this collection's first chunk:
  /// `offsets` (num_sets+1 entries, offsets[0] == 0, offsets[num_sets] ==
  /// pool.size()) and `pool` describe the sets, `coverage` (num_nodes
  /// entries) their cumulative coverage, and `owner` keeps the referenced
  /// bytes alive (the mmap'd payload). Valid only while the collection is
  /// empty — warm start happens at cache-entry creation, before any
  /// extension. The coverage checkpoint is copied O(n) onto the heap so
  /// views keep returning `const std::vector<uint32_t>&`; the sets
  /// themselves stay zero-copy. The CALLER vouches that the sets are
  /// exactly what cold generation under the entry's stream contract would
  /// produce (the snapshot loader checks stream seed, contract version,
  /// and graph digest before offering a prefix).
  void AdoptSealedPrefix(std::span<const uint64_t> offsets, std::span<const NodeId> pool,
                         std::span<const uint32_t> coverage,
                         std::shared_ptr<const void> owner);

 private:
  // See CollectionView::Part: flat storage pointers + type-erased
  // keepalive, identical for heap chunks and mapped snapshot sections.
  struct Chunk {
    size_t first_set = 0;
    size_t num_sets = 0;
    const uint64_t* offsets = nullptr;  // num_sets+1 entries, offsets[0] == 0
    const NodeId* pool = nullptr;
    size_t memory_bytes = 0;
    std::shared_ptr<const void> owner;
  };

  /// Coverage snapshot for the first `prefix` sets; caller holds mutex_.
  std::shared_ptr<const std::vector<uint32_t>> CoverageForLocked(size_t prefix) const;

  /// Derived (non-boundary) checkpoints kept at most this many; smallest
  /// prefixes are evicted first (doubling ladders re-request large ones).
  static constexpr size_t kMaxDerivedCheckpoints = 8;

  const NodeId num_nodes_;
  std::atomic<size_t> sealed_{0};

  /// Serializes extenders; held across generation (long). Never acquired
  /// while holding mutex_ (lock order: extend_mutex_ -> mutex_).
  std::mutex extend_mutex_;

  /// Guards chunks_ / checkpoints; held only for snapshot/publish/derive.
  mutable std::mutex mutex_;
  std::vector<Chunk> chunks_;
  /// boundary_coverage_[c] = cumulative coverage after chunks_[0..c].
  std::vector<std::shared_ptr<const std::vector<uint32_t>>> boundary_coverage_;
  /// Memoized intra-chunk prefix coverage, keyed by prefix length.
  mutable std::map<size_t, std::shared_ptr<const std::vector<uint32_t>>> derived_coverage_;
};

}  // namespace asti
