// Execution traces of adaptive runs: everything the evaluation section
// plots (seed counts, running time, per-round marginal truncated spreads,
// final spread per realization).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/selector.h"
#include "graph/types.h"

namespace asti {

/// One select-observe round of an adaptive policy.
struct RoundRecord {
  size_t round = 0;                  // 1-based
  std::vector<NodeId> seeds;         // batch selected this round
  NodeId shortfall_before = 0;       // η_i entering the round
  NodeId newly_activated = 0;        // |observed activations|
  NodeId truncated_gain = 0;         // min{newly_activated, shortfall_before}
  double estimated_gain = 0.0;       // selector's Δ estimate
  size_t num_samples = 0;            // RR/mRR sets generated
  size_t iterations = 0;             // doubling rungs used (SelectionResult)
  RoundAnswer answer = RoundAnswer::kUncertified;  // how the batch was answered
  double seconds = 0.0;              // selection + observation time
};

/// Full trace of one adaptive run on one hidden realization.
struct AdaptiveRunTrace {
  std::vector<RoundRecord> rounds;
  std::vector<NodeId> seeds;     // flattened, selection order
  NodeId eta = 0;
  NodeId total_activated = 0;
  bool target_reached = false;
  double seconds = 0.0;          // wall time of the whole run
  size_t total_samples = 0;

  size_t NumSeeds() const { return seeds.size(); }
};

/// Aggregates over repeated runs (the paper averages 20 realizations).
struct RunAggregate {
  double mean_seeds = 0.0;
  double mean_seconds = 0.0;
  double mean_spread = 0.0;
  double min_spread = 0.0;
  double max_spread = 0.0;
  size_t runs = 0;
  size_t runs_reaching_target = 0;
};

/// Computes the aggregate of a batch of traces.
RunAggregate Aggregate(const std::vector<AdaptiveRunTrace>& traces);

/// One-line summary, e.g. "seeds=12.4 time=0.8s spread=310.0 reached=20/20".
std::string Summarize(const RunAggregate& aggregate);

}  // namespace asti
