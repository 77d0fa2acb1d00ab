// Synthetic surrogates for the paper's four SNAP datasets (Table 2).
//
// The real SNAP files cannot be fetched offline, so each dataset is
// replaced by a synthetic surrogate. Each surrogate matches the original's
// directedness and power-law degree shape and is scaled so the full
// benchmark sweep runs on one laptop core. A `scale` multiplier lets
// callers grow or shrink any surrogate; scale == 1.0 gives the sizes in
// AllDatasets() (`asm_tool --list-graphs` prints them).

#pragma once

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "util/status.h"

namespace asti {

enum class DatasetId { kNetHept, kEpinions, kYoutube, kLiveJournal };

/// Catalog entry: the paper's reported statistics plus our surrogate
/// default size.
struct DatasetInfo {
  DatasetId id;
  const char* name;
  // Paper's Table 2 numbers.
  double paper_nodes;
  double paper_edges;
  bool undirected;
  double paper_avg_degree;
  // Surrogate defaults at scale == 1.0.
  NodeId surrogate_nodes;
  size_t surrogate_edges;  // directed edge count target
};

/// All four datasets in Table 2 order.
const std::vector<DatasetInfo>& AllDatasets();

/// Info lookup. Aborts on unknown id.
const DatasetInfo& GetDatasetInfo(DatasetId id);

/// Lookup by case-insensitive name ("nethept", "epinions", ...).
StatusOr<DatasetId> DatasetIdFromName(const std::string& name);

/// The lowercase serving name a dataset registers under in a GraphCatalog
/// ("nethept", "epinions", "youtube", "livejournal") — the inverse of
/// DatasetIdFromName for the canonical spelling.
std::string CanonicalDatasetName(DatasetId id);

/// Node count of the surrogate at `scale`: surrogate_nodes · scale, at least
/// 64. InvalidArgument unless scale > 0 and the count fits a NodeId.
StatusOr<NodeId> SurrogateNodeCount(DatasetId id, double scale);

/// Builds the surrogate graph. Deterministic given (id, scale, seed); its
/// node count is SurrogateNodeCount(id, scale).
/// The weight scheme defaults to the paper's weighted-cascade setting.
StatusOr<DirectedGraph> MakeSurrogateDataset(
    DatasetId id, double scale = 1.0, uint64_t seed = 7,
    WeightScheme scheme = WeightScheme::kWeightedCascade);

}  // namespace asti
