// Diffusion-model comparison — the same campaign under IC and LT (§2.1).
//
// The library treats the propagation model as a parameter: one
// SeedMinEngine serves identical ASTI campaigns under independent cascade
// and linear threshold on one network (the model is just a SolveRequest
// field) and contrasts seeds, spread and runtime — exhibiting the paper's
// observation that LT runs faster and needs fewer seeds at the same
// threshold. The four (model, algorithm) queries are submitted
// asynchronously and gathered in order.

#include <future>
#include <iostream>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "benchutil/table.h"
#include "graph/datasets.h"

int main() {
  using namespace asti;
  GraphCatalog catalog;
  const auto youtube = RegisterSurrogate(catalog, DatasetId::kYoutube, 0.1, 17);
  if (!youtube.ok()) {
    std::cerr << youtube.status().ToString() << "\n";
    return 1;
  }
  const NodeId eta = static_cast<NodeId>(youtube->num_nodes() / 10);
  std::cout << "IC vs LT on a friendship network: n=" << youtube->num_nodes()
            << ", m=" << youtube->num_edges() << ", eta=" << eta << "\n\n";

  // Four drivers serve the four queries concurrently; in a real serving
  // deployment SubmitAsync would answer ResourceExhausted beyond drivers +
  // max_queue_depth admitted requests (SolveBatch waits for a slot).
  SeedMinEngine::ServingOptions options;
  options.num_drivers = 4;
  SeedMinEngine engine(catalog, options);
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  std::vector<DiffusionModel> models;
  for (DiffusionModel model :
       {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
    for (AlgorithmId algorithm : {AlgorithmId::kAsti, AlgorithmId::kAsti4}) {
      SolveRequest request;
      request.graph = youtube->name();
      request.model = model;
      request.eta = eta;
      request.algorithm = algorithm;
      request.realizations = 5;
      request.seed = 4242;
      futures.push_back(engine.SubmitAsync(request));
      models.push_back(model);
    }
  }

  TextTable table({"model", "algorithm", "avg seeds", "avg spread", "avg time (s)",
                   "reached"});
  for (size_t i = 0; i < futures.size(); ++i) {
    StatusOr<SolveResult> solved = futures[i].get();
    if (!solved.ok()) {
      std::cerr << solved.status().ToString() << "\n";
      return 1;
    }
    const SolveResult& result = *solved;
    table.AddRow({DiffusionModelName(models[i]), AlgorithmName(result.algorithm),
                  FormatDouble(result.aggregate.mean_seeds, 1),
                  FormatDouble(result.aggregate.mean_spread, 0),
                  FormatDouble(result.aggregate.mean_seconds, 3),
                  std::to_string(result.aggregate.runs_reaching_target) + "/5"});
  }
  table.Print(std::cout);
  std::cout << "\nReading the table: the same code path serves both models; "
               "LT campaigns finish faster (reverse traversals follow at most "
               "one in-edge per node) and tend to need fewer seeds, matching "
               "the paper's Figures 6-7.\n";
  return 0;
}
