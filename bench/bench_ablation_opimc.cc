// Ablation — one-group TRIM vs the two-group OPIM-C design (§3.4).
//
// The paper customizes OPIM-C "by utilizing one group of mRR-sets, which
// would be more efficient for selecting a singleton seed set" (citing
// Huang et al. 2017). This bench runs both designs over identical residual
// states and reports samples generated, selection time, and the quality of
// the chosen node, across several shortfall levels.

#include <iostream>
#include <memory>
#include <numeric>

#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "core/trim.h"
#include "core/trim_two_group.h"
#include "diffusion/monte_carlo.h"
#include "graph/datasets.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv, {"scale", "seed", "threads", "repeats"});
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 0.5));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  const size_t num_threads = NumThreadsOverride(cli);
  std::unique_ptr<ThreadPool> pool;  // 1 = no pool
  if (num_threads != 1) pool = std::make_unique<ThreadPool>(num_threads);
  const size_t repeats =
      EnvSize("ASM_BENCH_REALIZATIONS", static_cast<size_t>(cli.GetInt("repeats", 3)));

  auto graph = MakeSurrogateDataset(DatasetId::kNetHept, scale, seed);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }
  const NodeId n = graph->NumNodes();
  std::cout << "Ablation: one-group TRIM vs two-group OPIM-C design (n=" << n
            << ", IC model, " << repeats << " repeats per cell)\n\n";

  BitVector active(n);
  std::vector<NodeId> inactive(n);
  std::iota(inactive.begin(), inactive.end(), 0);

  TextTable table({"eta_i/n", "design", "mean samples", "mean time (s)",
                   "mean est. gain"});
  for (double fraction : {0.01, 0.05, 0.1, 0.2}) {
    const NodeId eta_i = std::max<NodeId>(1, static_cast<NodeId>(fraction * n));
    ResidualView view;
    view.active = &active;
    view.inactive_nodes = &inactive;
    view.shortfall = eta_i;

    for (int design = 0; design < 2; ++design) {
      double samples = 0.0;
      double seconds = 0.0;
      double gain = 0.0;
      for (size_t r = 0; r < repeats; ++r) {
        Rng rng(seed * 31 + r * 7 + static_cast<uint64_t>(design));
        WallTimer timer;
        SelectionResult result;
        TrimOptions options;
        options.epsilon = 0.5;
        options.pool = pool.get();
        if (design == 0) {
          Trim one(*graph, DiffusionModel::kIndependentCascade, options);
          result = one.SelectBatch(view, rng);
        } else {
          TrimTwoGroup two(*graph, DiffusionModel::kIndependentCascade, options);
          result = two.SelectBatch(view, rng);
        }
        seconds += timer.Seconds();
        samples += static_cast<double>(result.num_samples);
        gain += result.estimated_marginal_gain;
      }
      table.AddRow({FormatDouble(fraction, 2), design == 0 ? "one-group" : "two-group",
                    FormatDouble(samples / repeats, 0),
                    FormatDouble(seconds / repeats, 4),
                    FormatDouble(gain / repeats, 1)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape (§3.4): comparable estimated gains, with the "
               "one-group design competitive or cheaper in samples/time for "
               "singleton selection.\n";
  return 0;
}
