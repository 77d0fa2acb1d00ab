#include "benchutil/experiment.h"

#include "benchutil/table.h"
#include "util/check.h"

namespace asti {

SolveRequest CellConfig::ToRequest() const {
  SolveRequest request;
  request.algorithm = algorithm;
  request.model = model;
  request.eta = eta;
  request.epsilon = epsilon;
  request.realizations = realizations;
  request.seed = seed;
  request.keep_traces = keep_traces;
  return request;
}

CellResult RunCell(const DirectedGraph& graph, const CellConfig& config) {
  // A scoped single-graph catalog: the synchronous call guarantees the
  // caller's graph outlives the borrowed snapshot.
  GraphCatalog catalog;
  ASM_CHECK(catalog.Register(kRunCellGraphName, BorrowSnapshot(graph)).ok());
  SeedMinEngine engine(catalog, {config.num_threads});
  SolveRequest request = config.ToRequest();
  request.graph = kRunCellGraphName;
  StatusOr<SolveResult> result = engine.Solve(request);
  ASM_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::string ImprovementRatio(const CellResult& asti, const CellResult& ateuc) {
  if (!ateuc.always_reached) return "N/A";
  if (asti.aggregate.mean_seeds <= 0.0) return "N/A";
  const double ratio =
      (ateuc.aggregate.mean_seeds - asti.aggregate.mean_seeds) /
      asti.aggregate.mean_seeds;
  return FormatDouble(100.0 * ratio, 1) + "%";
}

}  // namespace asti
