// Figure 7 — running time vs threshold η/n under the LT model.
//
// Shapes: everything of Figure 5 plus "LT is faster than IC at the same
// setting" (LT mRR-sets follow at most one in-edge per node).
//
// TRIM departs from Algorithms 2-3 in one way: a round whose one-hop
// certificate holds (core/trim.h) is certified without samples, so its
// small-shortfall rounds cost far less time (and sets) than the paper's.

#include <iostream>

#include "benchutil/sweep.h"
#include "benchutil/table.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  using namespace asti;
  SweepOptions options;
  options.base.model = DiffusionModel::kLinearThreshold;
  ApplyStandardOverrides(argc, argv, options);

  std::cout << "Figure 7: running time (seconds) vs threshold (LT model), scale="
            << options.scale << ", realizations=" << options.base.realizations << "\n";
  const auto cells = RunEvaluationSweep(options, [](const SweepCell& cell) {
    ASM_LOG(kInfo) << GetDatasetInfo(cell.dataset).name << " eta/n="
                   << cell.eta_fraction << " " << AlgorithmName(cell.algorithm)
                   << ": " << Summarize(cell.result.aggregate);
  });

  for (DatasetId dataset : options.datasets) {
    std::cout << "\n(" << GetDatasetInfo(dataset).name << ")\n";
    std::vector<std::string> header = {"eta/n"};
    for (AlgorithmId algorithm : options.algorithms) {
      header.push_back(AlgorithmName(algorithm));
    }
    TextTable table(header);
    for (double eta_fraction : EtaFractionsFor(dataset)) {
      std::vector<std::string> row = {FormatDouble(eta_fraction, 2)};
      for (AlgorithmId algorithm : options.algorithms) {
        for (const SweepCell& cell : cells) {
          if (cell.dataset == dataset && cell.eta_fraction == eta_fraction &&
              cell.algorithm == algorithm) {
            row.push_back(FormatDouble(cell.result.aggregate.mean_seconds, 3));
          }
        }
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  std::cout << "\nShape check (paper Fig. 7): same ordering as Fig. 5 and "
               "uniformly faster than the IC runs of Fig. 5.\n";
  return 0;
}
