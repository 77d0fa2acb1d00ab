// Ablation — batch size sweep for TRIM (§6.2/6.3's tradeoff, extended).
//
// Sweeps b ∈ {1, 2, 4, 8, 16} (b = 1 is Algorithm 2, b ≥ 2 Algorithm 3)
// on one surrogate and reports seeds, rounds, mRR samples, and wall time.
// The paper's observation: larger b divides the rounds (and the time, to
// ~5% at b=8) while adding only a few seeds; past the sweet spot the batch
// overshoots η and wastes seeds.

#include <algorithm>
#include <iostream>
#include <memory>

#include "benchutil/cli.h"
#include "benchutil/table.h"
#include "core/asti.h"
#include "core/trim.h"
#include "diffusion/world.h"
#include "graph/datasets.h"
#include "parallel/thread_pool.h"

int main(int argc, char** argv) {
  using namespace asti;
  const CommandLine cli(argc, argv, {"scale", "realizations", "seed", "threads"});
  const double scale = EnvDouble("ASM_BENCH_SCALE", cli.GetDouble("scale", 0.5));
  const size_t realizations =
      EnvSize("ASM_BENCH_REALIZATIONS", static_cast<size_t>(cli.GetInt("realizations", 3)));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed", 7));
  const size_t num_threads = NumThreadsOverride(cli);
  std::unique_ptr<ThreadPool> pool;  // 1 = no pool
  if (num_threads != 1) pool = std::make_unique<ThreadPool>(num_threads);

  auto graph = MakeSurrogateDataset(DatasetId::kEpinions, scale, seed);
  if (!graph.ok()) {
    std::cerr << graph.status().ToString() << "\n";
    return 1;
  }
  const NodeId eta = std::max<NodeId>(1, graph->NumNodes() / 10);
  std::cout << "Ablation: TRIM batch size sweep on Epinions surrogate (n="
            << graph->NumNodes() << ", eta=" << eta << ", IC model, "
            << realizations << " realizations)\n\n";

  TextTable table({"b", "mean seeds", "mean rounds", "mean mRR sets", "mean time (s)",
                   "mean spread"});
  for (NodeId batch : {1, 2, 4, 8, 16}) {
    std::vector<AdaptiveRunTrace> traces;
    for (size_t run = 0; run < realizations; ++run) {
      Rng world_rng(seed * 101 + run);
      AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, eta, world_rng);
      TrimOptions options;
      options.epsilon = 0.5;
      options.batch_size = batch;
      options.pool = pool.get();
      Trim trim(*graph, DiffusionModel::kIndependentCascade, options);
      Rng rng(seed * 57 + run * 3 + batch);
      traces.push_back(RunAdaptivePolicy(world, trim, rng));
    }
    double rounds = 0.0;
    double samples = 0.0;
    for (const auto& trace : traces) {
      rounds += static_cast<double>(trace.rounds.size());
      samples += static_cast<double>(trace.total_samples);
    }
    const RunAggregate aggregate = Aggregate(traces);
    table.AddRow({std::to_string(batch), FormatDouble(aggregate.mean_seeds, 1),
                  FormatDouble(rounds / realizations, 1),
                  FormatDouble(samples / realizations, 0),
                  FormatDouble(aggregate.mean_seconds, 3),
                  FormatDouble(aggregate.mean_spread, 0)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: rounds ~ eta-rounds/b; time falls steeply "
               "with b; seeds creep up a little; spread overshoot grows "
               "with b.\n";
  return 0;
}
