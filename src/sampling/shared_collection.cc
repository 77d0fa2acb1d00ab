#include "sampling/shared_collection.h"

#include <algorithm>
#include <utility>

namespace asti {

const CollectionView::Part& CollectionView::PartFor(size_t i) const {
  // Binary search for the last part with first_set <= i. Views span few
  // parts (one per doubling chunk), so this is cold and tiny.
  auto it = std::upper_bound(parts_.begin(), parts_.end(), i,
                             [](size_t index, const Part& part) { return index < part.first_set; });
  ASM_DCHECK(it != parts_.begin());
  return *std::prev(it);
}

size_t SharedRrCollection::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = 0;
  for (const Chunk& chunk : chunks_) bytes += chunk.memory_bytes;
  bytes += boundary_coverage_.size() * num_nodes_ * sizeof(uint32_t);
  for (const auto& [prefix, coverage] : derived_coverage_) {
    (void)prefix;
    bytes += coverage->size() * sizeof(uint32_t);
  }
  return bytes;
}

std::shared_ptr<const std::vector<uint32_t>> SharedRrCollection::CoverageForLocked(
    size_t prefix) const {
  if (prefix == 0) {
    return std::make_shared<const std::vector<uint32_t>>(num_nodes_, 0);
  }
  // Locate the chunk containing set prefix-1.
  auto it = std::upper_bound(chunks_.begin(), chunks_.end(), prefix - 1,
                             [](size_t index, const Chunk& chunk) { return index < chunk.first_set; });
  ASM_DCHECK(it != chunks_.begin());
  const size_t c = static_cast<size_t>(std::prev(it) - chunks_.begin());
  const Chunk& chunk = chunks_[c];
  if (prefix == chunk.first_set + chunk.num_sets) return boundary_coverage_[c];
  if (auto cached = derived_coverage_.find(prefix); cached != derived_coverage_.end()) {
    return cached->second;
  }
  // Derive: nearest lower boundary checkpoint + replay of the partial chunk.
  auto coverage = c == 0 ? std::make_shared<std::vector<uint32_t>>(num_nodes_, 0)
                         : std::make_shared<std::vector<uint32_t>>(*boundary_coverage_[c - 1]);
  for (size_t i = chunk.first_set; i < prefix; ++i) {
    const size_t local = i - chunk.first_set;
    for (uint64_t p = chunk.offsets[local]; p < chunk.offsets[local + 1]; ++p) {
      ++(*coverage)[chunk.pool[p]];
    }
  }
  std::shared_ptr<const std::vector<uint32_t>> result = std::move(coverage);
  if (derived_coverage_.size() >= kMaxDerivedCheckpoints) {
    // Evict the smallest prefix: doubling ladders revisit the large ones.
    derived_coverage_.erase(derived_coverage_.begin());
  }
  derived_coverage_.emplace(prefix, result);
  return result;
}

CollectionView SharedRrCollection::Prefix(size_t prefix) const {
  ASM_CHECK(prefix <= SealedSets())
      << "view past sealed prefix: " << prefix << " > " << SealedSets();
  CollectionView view;
  view.num_nodes_ = num_nodes_;
  view.num_sets_ = prefix;
  std::lock_guard<std::mutex> lock(mutex_);
  view.coverage_owner_ = CoverageForLocked(prefix);
  view.coverage_ = view.coverage_owner_.get();
  for (const Chunk& chunk : chunks_) {
    if (chunk.first_set >= prefix) break;
    view.parts_.push_back(
        CollectionView::Part{chunk.first_set, chunk.offsets, chunk.pool, chunk.owner});
    const size_t in_chunk = std::min(prefix - chunk.first_set, chunk.num_sets);
    view.total_entries_ += static_cast<size_t>(chunk.offsets[in_chunk]);
    view.memory_bytes_ += chunk.memory_bytes;
  }
  return view;
}

bool SharedRrCollection::ExtendTo(
    size_t target, const std::function<void(size_t first, size_t count, RrCollection& staging)>&
                       generate) {
  ASM_CHECK(target <= RrCollection::kMaxSets) << "SharedRrCollection overflow";
  std::lock_guard<std::mutex> extend_lock(extend_mutex_);
  const size_t sealed = SealedSets();
  if (sealed >= target) return true;  // lost the race to an earlier extender
  const size_t count = target - sealed;
  RrCollection staging(num_nodes_);
  generate(sealed, count, staging);
  if (staging.NumSets() != count) {
    // Under-delivery means cancellation fired mid-batch (sampling blocks
    // stop at stride boundaries, leaving index holes). A hole would shift
    // every later set's global index and break the index-keyed determinism
    // contract, so the whole staging batch is discarded unpublished.
    return false;
  }
  auto sets = std::make_shared<const RrCollection>(std::move(staging));
  Chunk chunk;
  chunk.first_set = sealed;
  chunk.num_sets = sets->NumSets();
  chunk.offsets = sets->Offsets().data();
  chunk.pool = sets->Pool().data();
  chunk.memory_bytes = sets->MemoryBytes();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<std::vector<uint32_t>> boundary;
    if (boundary_coverage_.empty()) {
      boundary = std::make_shared<std::vector<uint32_t>>(sets->CoverageCounts());
    } else {
      boundary = std::make_shared<std::vector<uint32_t>>(*boundary_coverage_.back());
      const std::vector<uint32_t>& delta = sets->CoverageCounts();
      for (NodeId v = 0; v < num_nodes_; ++v) (*boundary)[v] += delta[v];
    }
    chunk.owner = std::move(sets);
    chunks_.push_back(std::move(chunk));
    boundary_coverage_.push_back(std::move(boundary));
  }
  sealed_.store(target, std::memory_order_release);
  return true;
}

void SharedRrCollection::AdoptSealedPrefix(std::span<const uint64_t> offsets,
                                           std::span<const NodeId> pool,
                                           std::span<const uint32_t> coverage,
                                           std::shared_ptr<const void> owner) {
  ASM_CHECK(!offsets.empty() && offsets.front() == 0);
  ASM_CHECK(offsets.back() == pool.size());
  ASM_CHECK(coverage.size() == num_nodes_);
  const size_t num_sets = offsets.size() - 1;
  ASM_CHECK(num_sets <= RrCollection::kMaxSets) << "adopted prefix overflows set ids";
  std::lock_guard<std::mutex> extend_lock(extend_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ASM_CHECK(chunks_.empty() && SealedSets() == 0)
        << "AdoptSealedPrefix on a non-empty collection";
    Chunk chunk;
    chunk.first_set = 0;
    chunk.num_sets = num_sets;
    chunk.offsets = offsets.data();
    chunk.pool = pool.data();
    // The mapped bytes (offsets + pool + the persisted coverage) are what
    // this chunk keeps resident.
    chunk.memory_bytes = offsets.size_bytes() + pool.size_bytes() + coverage.size_bytes();
    chunk.owner = std::move(owner);
    chunks_.push_back(std::move(chunk));
    boundary_coverage_.push_back(
        std::make_shared<const std::vector<uint32_t>>(coverage.begin(), coverage.end()));
  }
  sealed_.store(num_sets, std::memory_order_release);
}

}  // namespace asti
