// Two-group (OPIM-C style) variant of TRIM — the design §3.4 argues
// against for singleton selection.
//
// OPIM-C (Tang et al. 2018) maintains two disjoint mRR collections: R1
// derives the candidate (max coverage), R2 validates it (the lower bound
// is computed on samples the candidate never saw, so no union bound over
// all n_i nodes is needed: a2-style confidence suffices on both sides).
// TRIM instead spends its entire budget on one group and pays the ln n_i
// union-bound term. For b = 1 the one-group design wins (Huang et al.
// 2017); the bench/bench_ablation_opimc binary quantifies the gap. This
// class exists for that comparison and as a drop-in RoundSelector. It
// selects singletons only (TrimOptions::batch_size must be 1) and, as it
// certifies on a second collection, runs its own loop, not CertifyOnLadder.

#pragma once

#include "core/selector.h"
#include "core/trim.h"
#include "diffusion/model.h"
#include "graph/graph.h"
#include "parallel/parallel_sampler.h"
#include "sampling/rr_collection.h"

namespace asti {

/// Two-collection truncated influence maximizer.
class TrimTwoGroup : public RoundSelector {
 public:
  /// The graph must outlive the selector.
  TrimTwoGroup(const DirectedGraph& graph, DiffusionModel model, TrimOptions options = {});

  SelectionResult SelectBatch(const ResidualView& view, Rng& rng) override;

  const char* Name() const override { return "ASTI-2G"; }

 private:
  TrimOptions options_;
  ParallelRrSampler parallel_sampler_;
  RrCollection derive_;    // R1
  RrCollection validate_;  // R2
};

}  // namespace asti
