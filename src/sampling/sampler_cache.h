// Cross-request sampler cache: certified reuse of full-residual RR/mRR
// collections, keyed by what the sampling distribution actually depends on.
//
// A collection is cacheable exactly when its distribution is a pure
// function of the graph snapshot — i.e. when sampling sees the FULL
// residual (every node inactive). That covers the whole of ATEUC and
// Bisection, and round 1 of every adaptive policy (TRIM, TRIM-B, AdaptIM);
// later adaptive rounds condition on observed activations and stay on
// request-owned collections. Within one cache entry, requests needing θ
// sets take the sealed prefix of length exactly θ — the OPIM-C grow-only
// reuse argument — and extend only the shortfall.
//
// Key: (kind rr/mrr, diffusion model); mRR entries additionally carry
// (η, rounding) because the randomized root-count distribution depends on
// them. The graph snapshot itself is NOT in the key: one SamplerCache hangs
// off one engine GraphState, which is already keyed by (name, epoch), so
// GraphCatalog::Swap/Retire invalidate by construction — a hot-swap makes
// requests resolve a fresh GraphState with an empty cache, and live views
// on the old cache stay valid through their chunk pins.
//
// Determinism contract (the load-bearing part): per-set streams are
// base.Split(global_index), where `base` is a pure function of the CACHE
// KEY — never of a request seed. Set i's content is therefore identical no
// matter which request generated it, at what batch size, on how many
// threads, or whether it came from a warm entry or a cold one. Cached
// paths consume ZERO draws from the request RNG, so everything downstream
// of them is also stream-identical warm vs cold.
//
// An entry holds two things: the sealed sets above, and the certified
// round-1 picks made on them. The certify loop reads the first `want` sets
// of the key-derived stream for every rung, over all n candidates, and
// picks identically at every pool size — so its result is a pure function
// of the entry and the loop's (b, δ, ε̂, gain scale). The first completed
// pick for each such memo key is stored on the entry and served to every
// later round-1 selection with that key (core/trim.h CertifyOnCache). The
// memo lives and dies with its entry: LRU eviction or an epoch swap.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "diffusion/model.h"
#include "graph/graph.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "sampling/root_size.h"
#include "sampling/shared_collection.h"
#include "stats/truncation.h"
#include "util/cancellation.h"
#include "util/rng.h"

namespace asti {

/// Root of every cache stream family. A fixed constant — NOT a request
/// seed — so cached collections are a pure function of (graph snapshot,
/// cache key), which is what makes any request history produce the same
/// sets. It is also stamped into persisted collection sections (ASMS
/// snapshots) and checked on load, so a section written under a different
/// stream family is skipped rather than silently adopted. Changing it is a
/// determinism-breaking change (documented in src/api/README.md).
inline constexpr uint64_t kCacheStreamSeed = 0xa57150cc5eed0007ULL;

/// Version of the sampler determinism contract: the per-set stream
/// derivation (base.Split(global_index) rooted at kCacheStreamSeed) AND
/// the traversal algorithms consuming those streams. Bump on any change
/// that alters what set i contains for a given (graph, key, i) — persisted
/// collections carry it and the snapshot loader skips a mismatch, which
/// is what keeps "adopted from disk" bit-identical to "generated cold".
/// Version 2: IC traversal draws each in-edge's coin before it reads the
/// visited/active scratch and skips dead in-edges at uniform hubs
/// (sampling/rr_set.h), which changed IC sets; LT sets did not change.
inline constexpr uint32_t kSamplerContractVersion = 2;

/// What a full-residual collection's distribution depends on.
struct SamplerCacheKey {
  enum class Kind : uint8_t { kRr, kMrr };

  Kind kind = Kind::kRr;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// mRR only (root-count distribution); 0 for single-root RR.
  NodeId eta = 0;
  /// mRR only; kRandomized for single-root RR.
  RootRounding rounding = RootRounding::kRandomized;

  /// Single-root RR over the full graph (ATEUC / Bisection / AdaptIM
  /// round 1 all share this entry).
  static SamplerCacheKey Rr(DiffusionModel model) {
    return SamplerCacheKey{Kind::kRr, model, 0, RootRounding::kRandomized};
  }

  /// Full-residual mRR with the round-1 root-count law (n_i = n, η_i = η).
  static SamplerCacheKey Mrr(DiffusionModel model, NodeId eta, RootRounding rounding) {
    return SamplerCacheKey{Kind::kMrr, model, eta, rounding};
  }

  friend auto operator<=>(const SamplerCacheKey&, const SamplerCacheKey&) = default;
};

/// What a certified round-1 pick depends on besides its entry: the certify
/// schedule's batch b, δ and ε̂, and the gain scale (η for mRR entries, n
/// for RR entries). n is fixed per cache, so these fix the whole schedule.
struct SelectionMemoKey {
  NodeId batch = 1;
  double delta = 0.0;
  double eps_hat = 0.0;
  double gain_scale = 0.0;

  friend auto operator<=>(const SelectionMemoKey&, const SelectionMemoKey&) = default;
};

/// A completed certified pick, stored on the entry whose ladder it
/// certified: core/selector.h SelectionResult's fields, kept here because
/// sampling/ does not depend on core/.
struct MemoizedSelection {
  std::vector<NodeId> seeds;
  double estimated_marginal_gain = 0.0;
  size_t num_samples = 0;
  size_t iterations = 0;
};

/// Monotone counters, readable while requests run (metrics snapshots).
struct SamplerCacheStats {
  uint64_t hits = 0;        // Acquire or memo lookup served entirely from the entry
  uint64_t misses = 0;      // Acquire on an empty entry
  uint64_t extensions = 0;  // Acquire had to grow a non-empty entry
  uint64_t sets_reused = 0;
  uint64_t sets_extended = 0;
  uint64_t warm_starts = 0;   // entries created with an adopted disk prefix
  uint64_t sets_adopted = 0;  // sets those prefixes contributed
  uint64_t evictions = 0;     // entries dropped by the byte-budget LRU
  uint64_t selection_hits = 0;  // round-1 picks served from an entry's memo
};

/// A persisted sealed prefix a cache entry can adopt as its initial
/// extent: flat set storage (same layout as RrCollection — offsets has
/// num_sets+1 entries with offsets[0] == 0) plus the coverage checkpoint
/// after all num_sets sets, all typically spanning an mmap'd snapshot
/// section. `owner` keeps the spanned bytes alive.
struct PersistedSealedPrefix {
  std::span<const uint64_t> offsets;
  std::span<const NodeId> pool;
  std::span<const uint32_t> coverage;  // num_nodes entries
  std::shared_ptr<const void> owner;
};

/// Source of persisted sealed prefixes, implemented by the snapshot store
/// over a mapped file's collection sections. The implementation vouches
/// that an offered prefix was generated under THIS graph snapshot, the
/// current kCacheStreamSeed, and the current kSamplerContractVersion —
/// i.e. that its sets are bit-identical to what cold generation for `key`
/// would produce (the loader checks all three before offering anything).
class CollectionWarmSource {
 public:
  virtual ~CollectionWarmSource() = default;

  /// The persisted prefix for `key`, or nullopt when the snapshot carries
  /// none. Called at most once per cache entry (on creation); must be
  /// thread-safe and must not block on I/O beyond page faults.
  virtual std::optional<PersistedSealedPrefix> Find(const SamplerCacheKey& key) const = 0;
};

/// One entry's sealed prefix at export time, for the snapshot writer.
struct SealedCollectionExport {
  SamplerCacheKey key;
  /// Pinned view of EXACTLY the sealed sets; valid independent of further
  /// cache growth or the cache's lifetime.
  CollectionView view;
};

/// Per-GraphState cache of SharedRrCollections. Thread-safe: any number of
/// concurrent Acquire calls (readers and extenders mix freely).
class SamplerCache {
 public:
  /// The graph must outlive the cache (the engine's GraphState holds the
  /// snapshot shared_ptr that guarantees this). `warm` (nullable) offers
  /// persisted sealed prefixes: an entry whose key the source recognizes
  /// starts with the adopted prefix already sealed instead of empty —
  /// bit-identical to a cold entry extended to the same length, so the
  /// cached-vs-fresh determinism contract is unchanged. `byte_budget`
  /// (0 = unlimited) bounds TotalBytes with LRU eviction over whole
  /// (kind, model, η, rounding) entries: after an Acquire pushes the cache
  /// past the budget, the least-recently-acquired OTHER entries are
  /// dropped until it fits (the entry just served is never evicted — one
  /// working set always fits). Eviction is invisible to correctness: live
  /// CollectionViews pin their chunks independently, in-flight extenders
  /// hold the entry itself, and a re-created entry regenerates the
  /// identical sets (streams derive from the key, never from history).
  /// Only timing and the eviction counter observe it.
  explicit SamplerCache(const DirectedGraph& graph,
                        std::shared_ptr<const CollectionWarmSource> warm = nullptr,
                        size_t byte_budget = 0);

  /// Returns a view of EXACTLY the first `target` sets of the entry for
  /// `key`, extending the shared collection first if it is short. The view
  /// is only shorter than `target` when `cancel` fired mid-extension; the
  /// caller must treat that as cancellation and unwind.
  ///
  /// `pool` (nullable) runs the extension's traversals in parallel —
  /// results are bit-identical with any pool size including none.
  /// `profile` (nullable) accrues sampling wall time for extensions plus
  /// the reused/extended set counts and the shared-bytes gauge; it never
  /// influences generation.
  CollectionView Acquire(const SamplerCacheKey& key, size_t target, ThreadPool* pool,
                         const CancelScope* cancel, RequestProfile* profile);

  /// The pick stored under `memo` on `key`'s entry, or nullopt when the
  /// entry or its memo is absent. A hit counts as a cache hit whose
  /// num_samples sets were reused (stats and `profile`), and as a
  /// selection hit.
  std::optional<MemoizedSelection> FindSelection(const SamplerCacheKey& key,
                                                 const SelectionMemoKey& memo,
                                                 RequestProfile* profile);

  /// Stores a completed (non-empty) pick under `memo` on `key`'s entry.
  /// The first store wins; an entry evicted since its ladder was read is
  /// not re-created.
  void StoreSelection(const SamplerCacheKey& key, const SelectionMemoKey& memo,
                      MemoizedSelection selection);

  /// Resident bytes across every entry's chunks and checkpoints.
  size_t TotalBytes() const;

  SamplerCacheStats Stats() const;

  /// Pinned views of every entry's current sealed prefix (empty entries
  /// omitted), for the snapshot writer. Each view stays valid however the
  /// cache grows afterwards; the snapshot then freezes exactly the sets
  /// that were sealed at this call.
  std::vector<SealedCollectionExport> ExportSealed() const;

 private:
  struct Entry {
    Entry(const DirectedGraph& graph, const SamplerCacheKey& key);

    SharedRrCollection collection;
    /// Root of every per-set stream: pure function of the key (below).
    Rng base;
    /// mRR entries only.
    std::optional<RootSizeSampler> root_size;
    /// LRU recency: the use_tick_ value of this entry's latest Acquire or
    /// FindSelection. Guarded by the cache mutex_.
    uint64_t last_used = 0;
    /// Certified round-1 picks on this entry's sets, by memo key.
    std::mutex selections_mutex;
    std::map<SelectionMemoKey, MemoizedSelection> selections;  // guarded by it
  };

  /// Creates/touches the entry and returns a pin: eviction may drop the
  /// map slot at any time, so callers work through their own shared_ptr.
  std::shared_ptr<Entry> EntryFor(const SamplerCacheKey& key);

  /// Drops least-recently-used entries (never `just_used`) until
  /// TotalBytes fits the budget or only the just-used entry remains.
  void EnforceBudget(const SamplerCacheKey& just_used);

  const DirectedGraph* graph_;
  /// Persisted-prefix source (nullable); consulted once per entry creation.
  std::shared_ptr<const CollectionWarmSource> warm_;
  /// LRU byte budget; 0 = unlimited (entries live for the epoch).
  const size_t byte_budget_;
  /// Canonical full-residual candidate list (0..n-1); what round 1 of every
  /// policy passes today, and what ATEUC/Bisection call `all_nodes`.
  std::vector<NodeId> all_nodes_;

  mutable std::mutex mutex_;  // guards entries_ map shape + LRU bookkeeping
  std::map<SamplerCacheKey, std::shared_ptr<Entry>> entries_;
  /// Monotone Acquire clock feeding Entry::last_used (guarded by mutex_).
  uint64_t use_tick_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> extensions_{0};
  std::atomic<uint64_t> sets_reused_{0};
  std::atomic<uint64_t> sets_extended_{0};
  std::atomic<uint64_t> warm_starts_{0};
  std::atomic<uint64_t> sets_adopted_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> selection_hits_{0};
};

}  // namespace asti
