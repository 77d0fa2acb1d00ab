// Max-coverage references for the coverage tests: the eager greedy and the
// brute-force optimum, as references for the one library solver, CELF
// `LazyGreedyMaxCoverage` (coverage/lazy_greedy.h).
//
// EagerGreedyMaxCoverage is the classical greedy written plainly: every
// pick scans every eligible node for the (gain, lowest id) argmax of its
// current gain, then lowers the gain of each member of the sets it newly
// covers. It keeps its own node → set lists and its own candidate dedupe,
// so it shares no code with the solver it checks. CELF must return its
// picks, marginals and covered count exactly, zero-gain picks included.
// ExactMaxCoverage enumerates every size-b subset (tests check ρ_b against
// it on instances small enough to enumerate).

#pragma once

#include <algorithm>
#include <vector>

#include "coverage/max_coverage.h"
#include "sampling/shared_collection.h"
#include "util/check.h"

namespace asti::oracle {

inline MaxCoverageResult EagerGreedyMaxCoverage(const CollectionView& collection,
                                                NodeId budget,
                                                const std::vector<NodeId>* candidates = nullptr) {
  const NodeId n = collection.num_nodes();
  std::vector<std::vector<size_t>> sets_of(n);
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    for (NodeId v : collection.Set(s)) sets_of[v].push_back(s);
  }
  // Eligible nodes: every node, or each candidate once.
  std::vector<NodeId> eligible;
  std::vector<bool> listed(n, false);
  const size_t count = candidates == nullptr ? n : candidates->size();
  for (size_t i = 0; i < count; ++i) {
    const NodeId v = candidates == nullptr ? static_cast<NodeId>(i) : (*candidates)[i];
    ASM_CHECK(v < n);
    if (listed[v]) continue;
    listed[v] = true;
    eligible.push_back(v);
  }

  std::vector<uint32_t> gain(n);
  for (NodeId v = 0; v < n; ++v) gain[v] = static_cast<uint32_t>(sets_of[v].size());
  std::vector<bool> covered(collection.NumSets(), false);
  std::vector<bool> taken(n, false);
  MaxCoverageResult result;
  const size_t picks = std::min<size_t>(budget, eligible.size());
  while (result.selected.size() < picks) {
    NodeId best = kInvalidNode;
    for (NodeId v : eligible) {
      if (taken[v]) continue;
      if (best == kInvalidNode || gain[v] > gain[best] ||
          (gain[v] == gain[best] && v < best)) {
        best = v;
      }
    }
    taken[best] = true;
    result.selected.push_back(best);
    result.marginal_coverage.push_back(gain[best]);
    result.covered_sets += gain[best];
    for (size_t s : sets_of[best]) {
      if (covered[s]) continue;
      covered[s] = true;
      for (NodeId u : collection.Set(s)) --gain[u];
    }
  }
  return result;
}

/// Best size-`budget` subset of [0, n) by brute force; only for instances
/// with (n choose b) up to about a million.
inline MaxCoverageResult ExactMaxCoverage(const CollectionView& collection, NodeId budget) {
  const NodeId n = collection.num_nodes();
  ASM_CHECK(budget >= 1 && budget <= n);
  MaxCoverageResult best;
  std::vector<NodeId> current;
  std::vector<bool> chosen(n, false);
  auto count_covered = [&] {
    uint32_t count = 0;
    for (size_t s = 0; s < collection.NumSets(); ++s) {
      const auto set = collection.Set(s);
      if (std::any_of(set.begin(), set.end(), [&](NodeId v) { return chosen[v]; })) ++count;
    }
    return count;
  };
  auto enumerate = [&](auto&& self, NodeId first) -> void {
    if (current.size() == budget) {
      const uint32_t count = count_covered();
      if (count > best.covered_sets || best.selected.empty()) {
        best.covered_sets = count;
        best.selected = current;
      }
      return;
    }
    for (NodeId v = first; v < n; ++v) {
      current.push_back(v);
      chosen[v] = true;
      self(self, v + 1);
      chosen[v] = false;
      current.pop_back();
    }
  };
  enumerate(enumerate, 0);
  return best;
}

}  // namespace asti::oracle
