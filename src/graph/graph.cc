#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace asti {

namespace {

// FNV-1a-flavoured mixing, same shape as the bench checksums: order
// sensitive, cheap, stable across platforms for identical inputs.
class DigestMixer {
 public:
  void Mix(uint64_t word) {
    word *= 0x100000001b3ULL;
    digest_ ^= word + (digest_ << 6) + (digest_ >> 2);
  }
  void MixDouble(double value) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    Mix(bits);
  }
  uint64_t digest() const { return digest_; }

 private:
  uint64_t digest_ = 0x51a23d5ed1ce5707ULL;
};

}  // namespace

void DirectedGraph::DeriveUniformIn() {
  auto uniform = std::make_shared<BitVector>(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    // Read the flat arrays directly: a snapshot's interior offsets are
    // trusted bytes, and a run that is empty, reversed or out of range
    // simply stays non-uniform here.
    const EdgeId begin = in_offsets_[v];
    const EdgeId end = in_offsets_[v + 1];
    if (begin >= end || end > in_probs_.size()) continue;
    const double p = in_probs_[begin];
    if (!(p > 0.0 && p <= 1.0)) continue;
    if (std::all_of(in_probs_.begin() + begin + 1, in_probs_.begin() + end,
                    [p](double q) { return q == p; })) {
      uniform->Set(v);
    }
  }
  uniform_in_ = std::move(uniform);
}

double DirectedGraph::OutMass(NodeId v) const {
  // Same guard as DeriveUniformIn: a malformed run simply has no mass.
  const EdgeId begin = out_offsets_[v];
  const EdgeId end = out_offsets_[v + 1];
  if (begin >= end || end > out_probs_.size()) return 0.0;
  double sum = 0.0;
  for (EdgeId e = begin; e < end; ++e) sum += out_probs_[e];
  return sum > 0.0 ? sum : 0.0;  // and NaN cannot break the sort's ordering
}

void DirectedGraph::DeriveMaxOutMass() {
  double max_mass = 0.0;
  for (NodeId v = 0; v < num_nodes_; ++v) max_mass = std::max(max_mass, OutMass(v));
  max_out_mass_ = max_mass;
  derived_ = std::make_shared<DerivedOnRead>();
}

void DirectedGraph::SortByOutMass() const {
  // (mass, id) pairs sort without an indirect read per comparison.
  std::vector<std::pair<double, NodeId>> keyed(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) keyed[v] = {OutMass(v), v};
  std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<NodeId>& nodes = derived_->out_mass_order;
  nodes.resize(num_nodes_);
  for (NodeId k = 0; k < num_nodes_; ++k) nodes[k] = keyed[k].second;
}

void DirectedGraph::DeriveNoLiveIn() const {
  std::vector<double>& no_live = derived_->no_live_in;
  no_live.assign(num_nodes_, 0.0);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    // The uniform bit already vetted v's run; p = 1 keeps 0.
    if (!uniform_in_->Get(v)) continue;
    const double p = in_probs_[in_offsets_[v]];
    if (p >= 1.0) continue;
    const double d = static_cast<double>(in_offsets_[v + 1] - in_offsets_[v]);
    const double q0 = std::exp(d * std::log1p(-p));
    if (q0 >= kMinNoLiveInProbability) no_live[v] = q0;
  }
}

double DirectedGraph::InProbabilitySum(NodeId v) const {
  double sum = 0.0;
  for (double p : InProbabilities(v)) sum += p;
  return sum;
}

std::vector<Edge> DirectedGraph::ToEdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (EdgeId e = out_offsets_[u]; e < out_offsets_[u + 1]; ++e) {
      edges.push_back(Edge{u, out_targets_[e], out_probs_[e]});
    }
  }
  return edges;
}

uint64_t ForwardCsrDigest(const DirectedGraph& graph) {
  DigestMixer mixer;
  mixer.Mix(graph.NumNodes());
  mixer.Mix(graph.OutTargets().size());
  for (EdgeId offset : graph.OutOffsets()) mixer.Mix(offset);
  for (NodeId target : graph.OutTargets()) mixer.Mix(target);
  for (double p : graph.OutProbs()) mixer.MixDouble(p);
  return mixer.digest();
}

}  // namespace asti
