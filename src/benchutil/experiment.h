// Shared experiment runner behind every figure/table harness.
//
// One "cell" of the paper's plots is (dataset, model, η, algorithm)
// averaged over R hidden realizations. RunCell executes exactly that by
// delegating to the SeedMinEngine façade (src/api/): the caller's graph
// is registered as a borrowed snapshot in a throwaway GraphCatalog (the
// engine serves catalog graphs only — the raw-graph engine binding is
// gone), adaptive algorithms re-run their select-observe loop per
// realization, and ATEUC selects once and is evaluated on the same
// realizations. The R hidden realizations are derived from the run seed
// only, so every algorithm faces identical worlds (the paper's §6
// protocol). AlgorithmId and the selector construction live in
// api/algorithm_registry.h; this header keeps the bench-facing CellConfig
// spelling.

#pragma once

#include <string>

#include "api/request.h"
#include "api/seedmin_engine.h"
#include "graph/graph.h"

namespace asti {

/// A cell's outcome is exactly the engine's answer.
using CellResult = SolveResult;

/// One plot cell: fixed dataset/model/η/algorithm over R realizations.
/// A SolveRequest plus the engine-level thread knob, for harnesses that
/// build a throwaway engine per cell.
struct CellConfig {
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  NodeId eta = 1;
  AlgorithmId algorithm = AlgorithmId::kAsti;
  size_t realizations = 5;
  double epsilon = 0.5;        // ε for sampling-based selectors
  uint64_t seed = 1;           // governs hidden realizations & selector RNG
  bool keep_traces = false;    // retain full per-round traces (Fig. 10)
  /// Sampling workers for RR/mRR-based selectors (TRIM, TRIM-B, AdaptIM,
  /// ATEUC): 1 = no pool, 0 = all hardware threads, k = k workers.
  size_t num_threads = 1;

  /// The engine query this cell describes.
  SolveRequest ToRequest() const;
};

/// The catalog name RunCell registers its borrowed snapshot under (the
/// per-call engine serves exactly this one graph).
inline constexpr const char* kRunCellGraphName = "cell";

/// Runs one cell on `graph` through a per-call engine over a throwaway
/// single-graph catalog. Crashes (legacy harness contract) on configs the
/// engine rejects; call SeedMinEngine::Solve directly for
/// Status-returning validation.
CellResult RunCell(const DirectedGraph& graph, const CellConfig& config);

/// Improvement ratio of ATEUC over ASTI in seed count: extra seeds ATEUC
/// selects relative to ASTI (Table 3). Returns "N/A" when ATEUC misses the
/// threshold on any realization, matching the paper's table.
std::string ImprovementRatio(const CellResult& asti, const CellResult& ateuc);

}  // namespace asti
