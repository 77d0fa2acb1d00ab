#include "sampling/sampler_cache.h"

#include <algorithm>
#include <numeric>

#include "parallel/parallel_sampler.h"

namespace asti {

SamplerCache::Entry::Entry(const DirectedGraph& graph, const SamplerCacheKey& key)
    : collection(graph.NumNodes()),
      base(Rng(kCacheStreamSeed)
               .Split(static_cast<uint64_t>(key.kind))
               .Split(static_cast<uint64_t>(key.model))
               .Split(key.eta)
               // The rounding cached entries use. Every entry's stream
               // takes this split, persisted and pinned sets included.
               .Split(static_cast<uint64_t>(RootRounding::kRandomized))) {
  if (key.kind == SamplerCacheKey::Kind::kMrr) {
    // Round-1 root-count law: n_i = n, η_i = η (full residual).
    root_size.emplace(graph.NumNodes(), key.eta, RootRounding::kRandomized);
  }
}

SamplerCache::SamplerCache(const DirectedGraph& graph,
                           std::shared_ptr<const CollectionWarmSource> warm,
                           size_t byte_budget)
    : graph_(&graph),
      warm_(std::move(warm)),
      byte_budget_(byte_budget),
      all_nodes_(graph.NumNodes()) {
  std::iota(all_nodes_.begin(), all_nodes_.end(), NodeId{0});
}

std::shared_ptr<SamplerCache::Entry> SamplerCache::EntryFor(const SamplerCacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<Entry>& slot = entries_[key];
  if (slot == nullptr) {
    slot = std::make_shared<Entry>(*graph_, key);
    // Warm start: adopt the persisted sealed prefix (if the snapshot
    // carries one for this key) as the entry's initial extent. The source
    // has already certified seed/contract/digest, so the adopted sets are
    // exactly what the extension path below would have generated — the
    // first Acquire against them is an ordinary sealed-prefix hit.
    if (warm_ != nullptr) {
      if (std::optional<PersistedSealedPrefix> prefix = warm_->Find(key)) {
        slot->collection.AdoptSealedPrefix(prefix->offsets, prefix->pool,
                                           prefix->coverage, std::move(prefix->owner));
        warm_starts_.fetch_add(1, std::memory_order_relaxed);
        sets_adopted_.fetch_add(prefix->offsets.size() - 1, std::memory_order_relaxed);
      }
    }
  }
  slot->last_used = ++use_tick_;
  return slot;
}

void SamplerCache::EnforceBudget(const SamplerCacheKey& just_used) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    total += entry->collection.MemoryBytes();
  }
  while (total > byte_budget_ && entries_.size() > 1) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == just_used) continue;
      if (victim == entries_.end() || it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    total -= std::min(total, victim->second->collection.MemoryBytes());
    // Erasing the map slot drops only the cache's pin: an Acquire that
    // already holds the shared_ptr finishes normally, and the views it
    // returned pin their chunks past even that. The next Acquire for this
    // key re-creates the entry and regenerates the identical sets.
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

CollectionView SamplerCache::Acquire(const SamplerCacheKey& key, size_t target,
                                     ThreadPool* pool, const CancelScope* cancel,
                                     RequestProfile* profile) {
  ASM_CHECK(target > 0);
  const std::shared_ptr<Entry> pin = EntryFor(key);
  Entry& entry = *pin;
  size_t extended = 0;
  if (entry.collection.SealedSets() < target) {
    PhaseSpan span(profile, RequestPhase::kSampling);
    const bool first_fill = entry.collection.SealedSets() == 0;
    entry.collection.ExtendTo(
        target, [&](size_t first, size_t count, RrCollection& staging) {
          // The inner sampler gets a null profile: extension time is
          // charged through the PhaseSpan above, and the staging
          // collection's bytes belong to the SHARED accounting below,
          // not the request-owned collection_bytes peak.
          ParallelRrSampler sampler(*graph_, key.model, pool, cancel,
                                    /*profile=*/nullptr);
          if (key.kind == SamplerCacheKey::Kind::kRr) {
            sampler.GenerateIndexed(all_nodes_, nullptr, first, count, staging,
                                    entry.base);
          } else {
            sampler.GenerateMrrIndexed(all_nodes_, nullptr, *entry.root_size, first,
                                       count, staging, entry.base);
          }
          if (staging.NumSets() == count) extended = count;
        });
    if (extended > 0) {
      (first_fill ? misses_ : extensions_).fetch_add(1, std::memory_order_relaxed);
      sets_extended_.fetch_add(extended, std::memory_order_relaxed);
    }
  }
  // A short serve (< target) happens only when cancellation fired before
  // the extension published; callers treat it as a cancelled request.
  const size_t served = std::min(target, entry.collection.SealedSets());
  const size_t reused = served - std::min(served, extended);
  if (extended == 0 && served == target) hits_.fetch_add(1, std::memory_order_relaxed);
  sets_reused_.fetch_add(reused, std::memory_order_relaxed);
  NoteSharedSampling(profile, reused, extended, entry.collection.MemoryBytes());
  CollectionView view = entry.collection.Prefix(served);
  if (byte_budget_ > 0) EnforceBudget(key);
  return view;
}

std::optional<MemoizedSelection> SamplerCache::FindSelection(const SamplerCacheKey& key,
                                                             const SelectionMemoKey& memo,
                                                             RequestProfile* profile) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto slot = entries_.find(key);
    if (slot == entries_.end()) return std::nullopt;
    entry = slot->second;
    entry->last_used = ++use_tick_;  // on a memo miss the caller Acquires it next
  }
  MemoizedSelection found;
  {
    std::lock_guard<std::mutex> lock(entry->selections_mutex);
    const auto it = entry->selections.find(memo);
    if (it == entry->selections.end()) return std::nullopt;
    found = it->second;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  selection_hits_.fetch_add(1, std::memory_order_relaxed);
  sets_reused_.fetch_add(found.num_samples, std::memory_order_relaxed);
  NoteSharedSampling(profile, found.num_samples, 0, entry->collection.MemoryBytes());
  return found;
}

void SamplerCache::StoreSelection(const SamplerCacheKey& key, const SelectionMemoKey& memo,
                                  MemoizedSelection selection) {
  ASM_CHECK(!selection.seeds.empty()) << "a cancelled pick is never memoized";
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto slot = entries_.find(key);
    if (slot == entries_.end()) return;
    entry = slot->second;
  }
  std::lock_guard<std::mutex> lock(entry->selections_mutex);
  entry->selections.try_emplace(memo, std::move(selection));
}

size_t SamplerCache::TotalBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    bytes += entry->collection.MemoryBytes();
  }
  return bytes;
}

SamplerCacheStats SamplerCache::Stats() const {
  SamplerCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.extensions = extensions_.load(std::memory_order_relaxed);
  stats.sets_reused = sets_reused_.load(std::memory_order_relaxed);
  stats.sets_extended = sets_extended_.load(std::memory_order_relaxed);
  stats.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  stats.sets_adopted = sets_adopted_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.selection_hits = selection_hits_.load(std::memory_order_relaxed);
  return stats;
}

std::vector<SealedCollectionExport> SamplerCache::ExportSealed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SealedCollectionExport> exports;
  exports.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    const size_t sealed = entry->collection.SealedSets();
    if (sealed == 0) continue;
    exports.push_back(SealedCollectionExport{key, entry->collection.Prefix(sealed)});
  }
  return exports;
}

}  // namespace asti
