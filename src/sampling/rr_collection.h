// Append-only pool of (m)RR-sets with per-node coverage counts.
//
// Storage is a flat node pool plus offsets (CSR-style), so doubling the
// collection never reallocates per-set vectors. Coverage Λ_R(v) — the
// number of stored sets containing v — is maintained incrementally and is
// the statistic TRIM/TRIM-B maximize.

#pragma once

#include <span>
#include <vector>

#include "graph/types.h"
#include "sampling/rr_buffer.h"
#include "util/check.h"

namespace asti {

/// Collection R of reverse-reachable sets over nodes [0, n).
class RrCollection {
 public:
  /// Hard cap on NumSets(): coverage counters are uint32_t and Λ_R(v) can
  /// reach the set count, so growth past this fails an ASM_CHECK instead of
  /// silently wrapping Λ_R(v).
  static constexpr size_t kMaxSets = 0xffffffffULL;

  explicit RrCollection(NodeId num_nodes)
      : num_nodes_(num_nodes), coverage_(num_nodes, 0) {}

  NodeId num_nodes() const { return num_nodes_; }
  size_t NumSets() const { return offsets_.size() - 1; }
  /// Σ |R| over all stored sets.
  size_t TotalEntries() const { return pool_.size(); }

  /// Resident footprint of the collection's backing storage in bytes
  /// (pool + offsets + coverage counters), reported in request profiles.
  size_t MemoryBytes() const {
    return pool_.capacity() * sizeof(NodeId) + offsets_.capacity() * sizeof(uint64_t) +
           coverage_.capacity() * sizeof(uint32_t);
  }

  /// Nodes of the i-th set, in traversal discovery order (roots first).
  std::span<const NodeId> Set(size_t i) const {
    ASM_DCHECK(i < NumSets());
    return {pool_.data() + offsets_[i], pool_.data() + offsets_[i + 1]};
  }

  /// Pool offset where set i begins (SetOffset(NumSets()) == TotalEntries()).
  /// Lets a prefix view compute Σ |R| over its first i sets in O(1).
  size_t SetOffset(size_t i) const {
    ASM_DCHECK(i < offsets_.size());
    return offsets_[i];
  }

  /// Λ_R(v): number of stored sets containing v.
  uint32_t Coverage(NodeId v) const {
    ASM_DCHECK(v < num_nodes_);
    return coverage_[v];
  }

  const std::vector<uint32_t>& CoverageCounts() const { return coverage_; }

  // Whole-array views of the flat storage. The offsets array has
  // NumSets()+1 entries with offsets[0] == 0; set i is
  // pool[offsets[i] .. offsets[i+1]). This is the layout CollectionView
  // parts and the snapshot store's persisted collections share — offsets
  // are uint64_t precisely so an RrCollection's arrays and an mmap'd
  // section are interchangeable behind the same pointers.
  std::span<const uint64_t> Offsets() const { return offsets_; }
  std::span<const NodeId> Pool() const { return pool_; }

  /// Removes all sets; coverage resets to zero.
  void Clear();

  // --- Bulk growth ---------------------------------------------------------

  /// Reserves room for `extra_sets` more sets totalling `extra_entries`
  /// pool nodes, so a known-size append never reallocates mid-merge.
  void Reserve(size_t extra_sets, size_t extra_entries);

  /// Reserves room for `extra_sets` more sets, sized by the current mean
  /// set size — the right predictor for one more doubling batch.
  void Reserve(size_t extra_sets);

  /// Appends every sealed set of `buffer` (preserving set order and node
  /// order within each set) and updates coverage. O(buffer.TotalEntries()).
  void AppendBatch(const RrSetBuffer& buffer);

  // --- Building protocol (used by samplers) -------------------------------
  // Samplers append nodes of the in-progress set directly into the pool via
  // PushNode (which also serves as the BFS queue), then seal it.

  /// Appends a node to the in-progress set. Returns its index in the pool.
  size_t PushNode(NodeId v) {
    ASM_DCHECK(v < num_nodes_);
    pool_.push_back(v);
    return pool_.size() - 1;
  }

  /// Node at absolute pool index (for BFS-over-pool traversal).
  NodeId PoolNode(size_t index) const {
    ASM_DCHECK(index < pool_.size());
    return pool_[index];
  }

  /// First pool index of the in-progress set.
  size_t InProgressBegin() const { return offsets_.back(); }
  size_t PoolSize() const { return pool_.size(); }

  /// Seals the in-progress set (everything pushed since the last seal) and
  /// updates coverage. The set must be non-empty and duplicate-free.
  void SealSet();

 private:
  NodeId num_nodes_;
  std::vector<uint64_t> offsets_{0};
  std::vector<NodeId> pool_;
  std::vector<uint32_t> coverage_;
};

}  // namespace asti
