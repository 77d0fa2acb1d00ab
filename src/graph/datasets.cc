#include "graph/datasets.h"

#include <algorithm>
#include <cctype>

#include "util/rng.h"

namespace asti {

const std::vector<DatasetInfo>& AllDatasets() {
  static const std::vector<DatasetInfo> kDatasets = {
      // id, name, paper n, paper m, undirected, avg deg, surrogate n, surrogate m
      {DatasetId::kNetHept, "NetHEPT", 15.2e3, 31.4e3, true, 4.18, 15200, 60000},
      {DatasetId::kEpinions, "Epinions", 132e3, 841e3, false, 13.4, 33000, 220000},
      {DatasetId::kYoutube, "Youtube", 1.13e6, 2.99e6, true, 5.29, 56000, 300000},
      {DatasetId::kLiveJournal, "LiveJournal", 4.85e6, 69.0e6, false, 28.5, 70000, 490000},
  };
  return kDatasets;
}

const DatasetInfo& GetDatasetInfo(DatasetId id) {
  for (const DatasetInfo& info : AllDatasets()) {
    if (info.id == id) return info;
  }
  ASM_CHECK(false) << "unknown dataset id";
  __builtin_unreachable();
}

StatusOr<DatasetId> DatasetIdFromName(const std::string& name) {
  std::string lowered = name;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (const DatasetInfo& info : AllDatasets()) {
    std::string candidate = info.name;
    std::transform(candidate.begin(), candidate.end(), candidate.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (candidate == lowered) return info.id;
  }
  return Status::NotFound("no dataset named '" + name + "'");
}

std::string CanonicalDatasetName(DatasetId id) {
  std::string name = GetDatasetInfo(id).name;
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return name;
}

namespace {

// Mirrors every edge, producing an undirected structure (paper transforms
// undirected datasets into two directed edges).
EdgeSkeleton Mirror(EdgeSkeleton skeleton) {
  const size_t original = skeleton.edges.size();
  skeleton.edges.reserve(2 * original);
  for (size_t i = 0; i < original; ++i) {
    const Edge& e = skeleton.edges[i];
    skeleton.edges.push_back(Edge{e.target, e.source, 1.0});
  }
  return skeleton;
}

}  // namespace

StatusOr<NodeId> SurrogateNodeCount(DatasetId id, double scale) {
  if (!(scale > 0.0)) return Status::InvalidArgument("scale must be positive");
  // Compare before casting: a large scale puts the count past every NodeId.
  const double nodes = GetDatasetInfo(id).surrogate_nodes * scale;
  if (!(nodes < static_cast<double>(kInvalidNode))) {
    return Status::InvalidArgument("scale " + std::to_string(scale) +
                                   " gives more nodes than a NodeId can index");
  }
  return std::max<NodeId>(64, static_cast<NodeId>(nodes));
}

StatusOr<DirectedGraph> MakeSurrogateDataset(DatasetId id, double scale, uint64_t seed,
                                             WeightScheme scheme) {
  ASM_ASSIGN_OR_RETURN(const NodeId n, SurrogateNodeCount(id, scale));
  const DatasetInfo& info = GetDatasetInfo(id);
  const size_t m = std::max<size_t>(
      128, static_cast<size_t>(static_cast<double>(info.surrogate_edges) * scale));
  Rng rng(seed ^ (static_cast<uint64_t>(id) << 32));

  EdgeSkeleton skeleton;
  switch (id) {
    case DatasetId::kNetHept:
      // Collaboration network: steep mirrored power law (exponent 2.5).
      // Flatter tails (e.g. Barabási–Albert hubs) proved far too explosive
      // under weighted-cascade weights — a single seed cascade would dwarf
      // the η/n = 0.01 threshold — while real NetHEPT's best node
      // influences ≈1% of the graph (paper Fig. 10a). The steeper tail
      // restores that calibration.
      skeleton = Mirror(MakeChungLu(n, m / 2, 2.5, rng));
      break;
    case DatasetId::kEpinions:
      // Directed trust network. Exponent calibrated (like NetHEPT's) so
      // the top node influences ~1% of the graph under weighted cascade;
      // flatter tails made single hubs swallow entire η/n thresholds.
      skeleton = MakeChungLu(n, m, 2.4, rng);
      break;
    case DatasetId::kYoutube:
      // Undirected friendship network: mirrored Chung-Lu halves.
      skeleton = Mirror(MakeChungLu(n, m / 2, 2.2, rng));
      break;
    case DatasetId::kLiveJournal:
      // Largest surrogate. The real graph's weighted-cascade per-seed
      // cascade (~120 nodes, inferable from the paper's seed counts) is a
      // vanishing fraction of its 4.85M nodes; symmetric Chung-Lu hubs at
      // laptop scale instead swallow every fractional threshold. A
      // power-law-in / uniform-out structure keeps heavy-tailed in-degrees
      // without explosive out-hubs, restoring the many-seeds regime all
      // LiveJournal experiments of the paper operate in.
      skeleton = MakeTwoSidedChungLu(n, m, /*out_exponent=*/0.0,
                                     /*in_exponent=*/2.3, rng);
      break;
  }
  Rng weight_rng = rng.Split();
  return BuildWeightedGraph(std::move(skeleton), scheme, 0.1, &weight_rng);
}

}  // namespace asti
