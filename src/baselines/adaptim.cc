#include "baselines/adaptim.h"

#include <cmath>

#include "coverage/max_coverage.h"
#include "stats/concentration.h"
#include "util/check.h"

namespace asti {

AdaptIm::AdaptIm(const DirectedGraph& graph, DiffusionModel model, AdaptImOptions options)
    : graph_(&graph),
      model_(model),
      options_(options),
      parallel_sampler_(graph, model, options.pool, options.cancel, options.profile),
      collection_(graph.NumNodes()) {
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
  const double delta = 1.0 / n_d;
  const double eps_hat = options_.epsilon;
  const double ln6d = std::log(6.0 / delta);
  const double root = std::sqrt(ln6d) + std::sqrt(std::log(n_d) + ln6d);
  const double theta_max = 2.0 * n_d * root * root / (eps_hat * eps_hat);
  const size_t theta_zero = static_cast<size_t>(
      std::max(1.0, std::ceil(theta_max * eps_hat * eps_hat / n_d)));
  const size_t max_iterations = DoublingLadderIterations(theta_zero, theta_max);
  const double t_d = static_cast<double>(max_iterations);
  const double a1 = std::log(3.0 * t_d / delta) + std::log(n_d);
  const double a2 = std::log(3.0 * t_d / delta);

  // Round 1 (full residual): serve the doubling ladder from the shared
  // single-root RR entry — the same (kRr, model) entry ATEUC and Bisection
  // read — consuming zero draws from `rng` (see Trim::SelectBatch).
  const LadderSource ladder =
      options_.sampler_cache != nullptr && ni == graph_->NumNodes()
          ? CachedLadder(*options_.sampler_cache, SamplerCacheKey::Rr(model_),
                         options_.pool, options_.cancel, options_.profile)
          : OwnedLadder(parallel_sampler_, collection_, *view.inactive_nodes, view.active,
                        /*root_size=*/nullptr, rng);

  SelectionResult result;
  for (size_t t = 1; t <= max_iterations; ++t) {
    const size_t want = DoublingLadderSets(theta_zero, t);
    const CollectionView sets = ladder(want);
    if (sets.NumSets() < want || Fired(options_.cancel)) return SelectionResult{};
    const NodeId v_star = ArgMaxCoverage(sets, options_.pool, options_.profile);
    const double coverage = static_cast<double>(sets.Coverage(v_star));
    double lower, upper;
    {
      PhaseSpan certify(options_.profile, RequestPhase::kCertify);
      lower = CoverageLowerBound(coverage, a1);
      upper = CoverageUpperBound(coverage, a2);
    }
    result.iterations = t;
    if (lower / upper >= 1.0 - eps_hat || t == max_iterations) {
      result.seeds = {v_star};
      result.estimated_marginal_gain = n_d * coverage / static_cast<double>(want);
      result.num_samples = want;
      return result;
    }
  }
  ASM_CHECK(false) << "unreachable: AdaptIM always returns by iteration T";
  return result;
}

}  // namespace asti
