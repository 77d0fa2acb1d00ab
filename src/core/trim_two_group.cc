#include "core/trim_two_group.h"

#include <cmath>

#include "coverage/max_coverage.h"
#include "stats/concentration.h"
#include "util/check.h"

namespace asti {

TrimTwoGroup::TrimTwoGroup(const DirectedGraph& graph, DiffusionModel model,
                           TrimOptions options)
    : options_(options),
      parallel_sampler_(graph, model, options.pool),
      derive_(graph.NumNodes()),
      validate_(graph.NumNodes()) {
  ASM_CHECK(options_.epsilon > 0.0 && options_.epsilon < 1.0);
  ASM_CHECK(options_.batch_size == 1) << "the two-group design selects singletons";
}

SelectionResult TrimTwoGroup::SelectBatch(const ResidualView& view, Rng& rng) {
  const NodeId ni = view.NumInactive();
  const NodeId eta_i = view.shortfall;
  ASM_CHECK(eta_i >= 1 && eta_i <= ni);

  // The same doubling schedule as one-group TRIM; each of R1/R2 receives
  // half of every generation step. The validation bound needs no ln n_i
  // union term (v* is independent of R2), so a1 == a2 here — the upside
  // OPIM-C buys with the split.
  const TrimSchedule schedule = ComputeTrimSchedule(ni, eta_i, 1, options_.epsilon);
  const RootSizeSampler root_size(ni, eta_i, options_.rounding);
  const LadderSource derive_ladder = OwnedLadder(
      parallel_sampler_, derive_, *view.inactive_nodes, view.active, &root_size, rng);
  const LadderSource validate_ladder = OwnedLadder(
      parallel_sampler_, validate_, *view.inactive_nodes, view.active, &root_size, rng);
  const size_t per_group_zero = (schedule.theta_zero + 1) / 2;

  SelectionResult result;
  for (size_t t = 1; t <= schedule.max_iterations; ++t) {
    const size_t per_group = DoublingLadderSets(per_group_zero, t);
    // R1 extends before R2 on every rung, fixing the request-stream order.
    const CollectionView derive = derive_ladder(per_group);
    const CollectionView validate = validate_ladder(per_group);
    const NodeId v_star = ArgMaxCoverage(derive, options_.pool);
    const double derive_coverage = static_cast<double>(derive.Coverage(v_star));
    const double validate_coverage = static_cast<double>(validate.Coverage(v_star));
    const double lower = CoverageLowerBound(validate_coverage, schedule.a2);
    const double upper = CoverageUpperBound(derive_coverage, schedule.a2);
    result.iterations = t;
    if ((upper > 0.0 && lower / upper >= 1.0 - schedule.eps_hat) ||
        t == schedule.max_iterations) {
      result.seeds = {v_star};
      // Report the validation-group estimate (unbiased for the chosen node).
      result.estimated_marginal_gain = static_cast<double>(eta_i) * validate_coverage /
                                       static_cast<double>(per_group);
      result.num_samples = 2 * per_group;
      return result;
    }
  }
  ASM_CHECK(false) << "unreachable: TrimTwoGroup always returns by iteration T";
  return result;
}

}  // namespace asti
