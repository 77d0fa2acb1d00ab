// Figure 5 — running time vs threshold η/n under the IC model.
//
// The shapes to reproduce: AdaptIM is roughly an order of magnitude slower
// than ASTI (it needs Θ(n_i/OPT') RR-sets per round vs Θ(η_i/OPT) mRR-sets);
// batched ASTI-2/4/8 cut ASTI's time to a fraction; ATEUC pays its one-shot
// selection once and is competitive at large η.
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
  options.base.model = DiffusionModel::kIndependentCascade;
  options.base.keep_traces = true;  // for the supplementary sample-count table
  ApplyStandardOverrides(argc, argv, options);

  std::cout << "Figure 5: running time (seconds) vs threshold (IC model), scale="
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
  // Supplementary: mean reverse-reachable sets generated per run — the
  // mechanism behind the paper's AdaptIM slowdown (Θ(n_i/OPT') RR-sets vs
  // TRIM's Θ(η_i/OPT) mRR-sets).
  std::cout << "\nSupplementary: mean (m)RR-sets generated per run\n";
  for (DatasetId dataset : options.datasets) {
    std::cout << "(" << GetDatasetInfo(dataset).name << ")\n";
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
            double samples = 0.0;
            for (const auto& trace : cell.result.traces) {
              samples += static_cast<double>(trace.total_samples);
            }
            row.push_back(FormatCount(
                samples / static_cast<double>(cell.result.traces.size())));
          }
        }
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }
  std::cout << "\nShape check (paper Fig. 5): ASTI-8 < ASTI-4 < ASTI-2 < ASTI "
               "in time; adaptive times grow with eta while ATEUC's one-shot "
               "cost does not. AdaptIM generates many times more RR-sets than "
               "ASTI generates mRR-sets (the paper's Θ(n_i/OPT') vs "
               "Θ(η_i/OPT) argument) — at laptop scale the cheaper per-set "
               "traversals mask it in wall time; at the paper's scale it is "
               "a 10-20x slowdown.\n";
  return 0;
}
