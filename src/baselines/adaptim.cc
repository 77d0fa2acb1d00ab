#include "baselines/adaptim.h"

#include "core/trim.h"
#include "util/check.h"

namespace asti {

AdaptIm::AdaptIm(const DirectedGraph& graph, DiffusionModel model, AdaptImOptions options)
    : graph_(&graph),
      model_(model),
      options_(options) {
  ASM_CHECK(options_.epsilon > 0.0 && options_.epsilon < 1.0);
}

SelectionResult AdaptIm::SelectBatch(const ResidualView& view, Rng& rng) {
  const NodeId ni = view.NumInactive();
  ASM_CHECK(ni >= 1);
  const double n_d = static_cast<double>(ni);

  // EPIC-style schedule: δ = 1/n_i, the untruncated analogue of TRIM's.
  // The estimator is n_i·Λ(v)/|R| ≈ E[I(v | S_{i-1})]; coverage fractions
  // scale as OPT'_i/n_i, so the stop condition engages only after
  // Θ(n_i ln n_i / OPT'_i) RR-sets — the cost gap the paper highlights.
  const TrimSchedule schedule =
      ComputeCertifySchedule(ni, /*batch=*/1, 1.0 / n_d, options_.epsilon);

  // Round 1 (full residual): certify on the shared single-root RR entry —
  // the same (kRr, model) entry ATEUC and Bisection read — through its
  // memo, consuming zero draws from `rng` (see Trim::SelectBatch).
  if (options_.sampler_cache != nullptr && ni == graph_->NumNodes()) {
    return CertifyOnCache(*options_.sampler_cache, SamplerCacheKey::Rr(model_), schedule,
                          *view.inactive_nodes, n_d, options_.pool, options_.cancel,
                          options_.profile);
  }
  if (!parallel_sampler_) {
    parallel_sampler_.emplace(*graph_, model_, options_.pool, options_.cancel,
                              options_.profile);
    collection_.emplace(graph_->NumNodes());
  }
  return CertifyOnLadder(OwnedLadder(*parallel_sampler_, *collection_, *view.inactive_nodes,
                                     view.active, /*root_size=*/nullptr, rng),
                         schedule, *view.inactive_nodes, n_d, options_.pool,
                         options_.cancel, options_.profile);
}

}  // namespace asti
