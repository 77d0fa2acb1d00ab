#include "sampling/rr_collection.h"

namespace asti {

void RrCollection::Clear() {
  offsets_.assign(1, 0);
  pool_.clear();
  std::fill(coverage_.begin(), coverage_.end(), 0);
}

void RrCollection::Reserve(size_t extra_sets, size_t extra_entries) {
  offsets_.reserve(offsets_.size() + extra_sets);
  pool_.reserve(pool_.size() + extra_entries);
}

void RrCollection::Reserve(size_t extra_sets) {
  const size_t mean_size = NumSets() == 0 ? 1 : (TotalEntries() + NumSets() - 1) / NumSets();
  Reserve(extra_sets, extra_sets * mean_size);
}

void RrCollection::AppendBatch(const RrSetBuffer& buffer) {
  ASM_DCHECK(pool_.size() == offsets_.back()) << "append during an in-progress set";
  // Λ_R(v) ≤ NumSets() always, so bounding the set count below 2^32 keeps
  // every uint32_t coverage counter (and the uint32_t set ids of the
  // coverage solvers' inverted indexes) from wrapping. Billion-set
  // collections must fail loudly, not corrupt Λ_R(v).
  ASM_CHECK(buffer.NumSets() <= kMaxSets - NumSets())
      << "RrCollection overflow: " << NumSets() << " + " << buffer.NumSets() << " sets";
  const std::vector<size_t>& offsets = buffer.offsets();
  const std::vector<NodeId>& pool = buffer.pool();
  const size_t sealed_entries = offsets.back();  // ignore any unsealed tail
  Reserve(buffer.NumSets(), sealed_entries);
  const size_t base = pool_.size();
  for (size_t i = 0; i < sealed_entries; ++i) {
    const NodeId v = pool[i];
    ASM_DCHECK(v < num_nodes_);
    pool_.push_back(v);
    ++coverage_[v];
  }
  for (size_t s = 1; s < offsets.size(); ++s) offsets_.push_back(base + offsets[s]);
}

void RrCollection::SealSet() {
  const size_t begin = offsets_.back();
  ASM_CHECK(pool_.size() > begin) << "sealing an empty RR-set";
  // See AppendBatch: the set-count bound saturates coverage_ loudly.
  ASM_CHECK(NumSets() < kMaxSets) << "RrCollection overflow: 2^32 - 1 sets";
  for (size_t i = begin; i < pool_.size(); ++i) {
    ASM_DCHECK(coverage_[pool_[i]] < kMaxSets);
    ++coverage_[pool_[i]];
  }
  offsets_.push_back(pool_.size());
}

}  // namespace asti
