// The paper's §6 evaluation sweep: datasets × thresholds × algorithms.
//
// Figures 4-7 and 9 and Table 3 all walk the same grid — four dataset
// surrogates, the large-η grid η/n ∈ {.01, .05, .1, .15, .2} (LiveJournal
// uses the small grid {.01...05}, §6.1), and the six algorithms of the
// paper — differing only in which metric they print. RunEvaluationSweep
// registers every dataset in one GraphCatalog, stands up ONE multi-tenant
// SeedMinEngine over it, and issues one SolveRequest per grid point:
// model/ε/realizations/seed flow through the `base` request (one struct,
// not per-algorithm plumbing), with graph name, algorithm and η
// overwritten per cell.

#pragma once

#include <functional>
#include <vector>

#include "benchutil/experiment.h"
#include "graph/datasets.h"

namespace asti {

/// Grid configuration shared by the figure benches.
struct SweepOptions {
  /// Per-cell request template: model, ε, realizations, seed, keep_traces.
  /// `graph`, `algorithm` and `eta` are overwritten at every grid point.
  SolveRequest base = [] {
    SolveRequest request;
    request.epsilon = 0.5;
    request.realizations = 2;
    request.seed = 7;
    return request;
  }();
  std::vector<AlgorithmId> algorithms = {
      AlgorithmId::kAsti,    AlgorithmId::kAsti2, AlgorithmId::kAsti4,
      AlgorithmId::kAsti8,   AlgorithmId::kAdaptIm, AlgorithmId::kAteuc};
  std::vector<DatasetId> datasets = {DatasetId::kNetHept, DatasetId::kEpinions,
                                     DatasetId::kYoutube, DatasetId::kLiveJournal};
  /// Surrogate scale (ASM_BENCH_SCALE / --scale overrides; see cli.h).
  double scale = 0.5;
  /// Engine pool size per dataset (ASM_BENCH_THREADS / --threads overrides;
  /// 1 = no pool, 0 = all hardware threads).
  size_t num_threads = 1;
};

/// One grid point's outcome.
struct SweepCell {
  DatasetId dataset;
  double eta_fraction = 0.0;
  NodeId eta = 0;
  AlgorithmId algorithm;
  CellResult result;
};

/// The paper's threshold grid for a dataset (LiveJournal gets the small-η
/// grid, everything else the large grid).
std::vector<double> EtaFractionsFor(DatasetId dataset);

/// Runs the full grid; emits one SweepCell per (dataset, η, algorithm).
/// `progress` (optional) is invoked after each cell for logging.
std::vector<SweepCell> RunEvaluationSweep(
    const SweepOptions& options,
    const std::function<void(const SweepCell&)>& progress = nullptr);

/// Applies the standard environment/CLI overrides (--scale, --realizations,
/// --epsilon, --seed; env ASM_BENCH_SCALE, ASM_BENCH_REALIZATIONS) to
/// `options` — the request-level ones land in options.base.
void ApplyStandardOverrides(int argc, const char* const* argv, SweepOptions& options);

}  // namespace asti
