#include "benchutil/sweep.h"

#include "api/graph_catalog.h"
#include "benchutil/cli.h"
#include "util/check.h"
#include "util/logging.h"

namespace asti {

std::vector<double> EtaFractionsFor(DatasetId dataset) {
  if (dataset == DatasetId::kLiveJournal) {
    return {0.01, 0.02, 0.03, 0.04, 0.05};  // the paper's tailored small-η grid
  }
  return {0.01, 0.05, 0.1, 0.15, 0.2};
}

std::vector<SweepCell> RunEvaluationSweep(
    const SweepOptions& options,
    const std::function<void(const SweepCell&)>& progress) {
  // One catalog holding every dataset surrogate, one resident multi-tenant
  // engine (and pool) serving the whole grid: requests are routed per
  // cell by graph name, exactly the serving posture the catalog exists for.
  GraphCatalog catalog;
  for (DatasetId dataset : options.datasets) {
    auto registered =
        RegisterSurrogate(catalog, dataset, options.scale, options.base.seed);
    ASM_CHECK(registered.ok()) << registered.status().ToString();
  }
  SeedMinEngine engine(catalog, {options.num_threads});

  std::vector<SweepCell> cells;
  for (DatasetId dataset : options.datasets) {
    const auto ref = catalog.Get(CanonicalDatasetName(dataset));
    ASM_CHECK(ref.ok()) << ref.status().ToString();
    for (double eta_fraction : EtaFractionsFor(dataset)) {
      const NodeId eta = std::max<NodeId>(
          1, static_cast<NodeId>(eta_fraction * ref->num_nodes()));
      for (AlgorithmId algorithm : options.algorithms) {
        SolveRequest request = options.base;
        request.graph = ref->name();
        request.algorithm = algorithm;
        request.eta = eta;
        StatusOr<SolveResult> result = engine.Solve(request);
        ASM_CHECK(result.ok()) << result.status().ToString();
        SweepCell cell{dataset, eta_fraction, eta, algorithm,
                       std::move(result).value()};
        if (progress) progress(cell);
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

void ApplyStandardOverrides(int argc, const char* const* argv, SweepOptions& options) {
  const CommandLine cli(argc, argv, {"scale", "threads", "epsilon", "seed", "realizations"});
  options.scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", options.scale));
  ApplyRequestOverrides(cli, options.base);
  options.num_threads = NumThreadsOverride(cli, options.num_threads);
}

}  // namespace asti
