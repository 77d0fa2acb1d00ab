#include "diffusion/forward_sim.h"

namespace asti {

template <bool kResidual>
std::vector<NodeId> ForwardSimulator::Run(const Realization& realization,
                                          const std::vector<NodeId>& seeds,
                                          const BitVector* active) {
  ASM_CHECK(&realization.graph() == graph_) << "realization belongs to another graph";
  visited_.Reset();
  // The activation list is the BFS queue: it grows while `head` walks it.
  std::vector<NodeId> activated;
  const auto reach = [&](NodeId v) {
    if constexpr (kResidual) {
      if (active->Get(v)) return;
    }
    if (visited_.MarkVisited(v)) activated.push_back(v);
  };
  for (NodeId s : seeds) {
    ASM_DCHECK(s < graph_->NumNodes());
    reach(s);
  }
  for (size_t head = 0; head < activated.size(); ++head) {
    for (const NodeId v : realization.LiveOutNeighbors(activated[head])) reach(v);
  }
  return activated;
}

std::vector<NodeId> ForwardSimulator::Propagate(const Realization& realization,
                                                const std::vector<NodeId>& seeds) {
  return Run<false>(realization, seeds, nullptr);
}

std::vector<NodeId> ForwardSimulator::PropagateResidual(const Realization& realization,
                                                        const std::vector<NodeId>& seeds,
                                                        const BitVector& active) {
  return Run<true>(realization, seeds, &active);
}

size_t ForwardSimulator::Spread(const Realization& realization,
                                const std::vector<NodeId>& seeds) {
  return Propagate(realization, seeds).size();
}

}  // namespace asti
