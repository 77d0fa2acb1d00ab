// Figure 3 — degree distributions of the tested datasets (log-log).
//
// The paper plots fraction-of-nodes vs degree for the four datasets and
// shows power-law tails. We print the log-binned distribution of each
// surrogate; the shape to check is a roughly straight line in log-log,
// i.e. fraction dropping by orders of magnitude across the degree decades.

#include <iostream>

#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "graph/datasets.h"
#include "graph/degree_stats.h"

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv, {"scale", "seed"});
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 1.0));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));

  std::cout << "Figure 3: degree distribution (log-binned fraction of nodes per "
               "degree), scale=" << scale << "\n";
  for (const DatasetInfo& info : AllDatasets()) {
    auto graph = MakeSurrogateDataset(info.id, scale, seed);
    if (!graph.ok()) {
      std::cerr << graph.status().ToString() << "\n";
      return 1;
    }
    std::cout << "\n" << info.name << " (n=" << graph->NumNodes()
              << ", m=" << graph->NumEdges() << ")\n";
    TextTable table({"degree>=", "fraction/degree"});
    for (const auto& point : ComputeLogBinnedDistribution(*graph)) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.3e", point.fraction);
      table.AddRow({std::to_string(point.degree), buffer});
    }
    table.Print(std::cout);
  }
  std::cout << "\nShape check: fractions fall by orders of magnitude with "
               "degree — the power-law tails of Figure 3.\n";
  return 0;
}
