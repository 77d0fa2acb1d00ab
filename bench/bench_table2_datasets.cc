// Table 2 — dataset details: n, m, type, average degree, LWCC size.
//
// Prints the paper's reported numbers side by side with our synthetic
// surrogates, which stand in for the SNAP files because those cannot be
// fetched offline. The shape to check:
// power-law surrogates whose LWCC covers nearly all nodes, like the
// originals.

#include <iostream>

#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "graph/datasets.h"
#include "graph/degree_stats.h"
#include "graph/wcc.h"

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv, {"scale", "seed"});
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 1.0));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));

  std::cout << "Table 2: dataset details (paper vs surrogate, scale=" << scale
            << ")\n\n";
  TextTable table({"Dataset", "paper n", "paper m", "type", "paper deg", "surr n",
                   "surr m", "surr deg", "surr LWCC", "LWCC frac"});
  for (const DatasetInfo& info : AllDatasets()) {
    auto graph = MakeSurrogateDataset(info.id, scale, seed);
    if (!graph.ok()) {
      std::cerr << graph.status().ToString() << "\n";
      return 1;
    }
    const DegreeStats stats = ComputeDegreeStats(*graph);
    const WccResult wcc = ComputeWcc(*graph);
    table.AddRow({info.name, FormatCount(info.paper_nodes), FormatCount(info.paper_edges),
                  info.undirected ? "undirected" : "directed",
                  FormatDouble(info.paper_avg_degree, 2),
                  FormatCount(static_cast<double>(graph->NumNodes())),
                  FormatCount(static_cast<double>(graph->NumEdges())),
                  FormatDouble(stats.average_out_degree, 2),
                  FormatCount(static_cast<double>(wcc.largest_size)),
                  FormatDouble(static_cast<double>(wcc.largest_size) /
                                   graph->NumNodes(), 3)});
  }
  table.Print(std::cout);
  std::cout << "\nShape check: every surrogate is dominated by one weakly "
               "connected component, matching Table 2's LWCC column.\n";
  return 0;
}
