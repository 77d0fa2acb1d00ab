#include "core/trim_b.h"

#include <cmath>

#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "stats/concentration.h"
#include "util/check.h"

namespace asti {

namespace {
constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
}  // namespace

TrimBSchedule ComputeTrimBSchedule(NodeId num_inactive, NodeId shortfall, NodeId batch,
                                   double epsilon) {
  ASM_CHECK(epsilon > 0.0 && epsilon < 1.0);
  ASM_CHECK(shortfall >= 1 && shortfall <= num_inactive);
  ASM_CHECK(batch >= 1 && batch <= num_inactive);
  const double ni = static_cast<double>(num_inactive);
  const double eta_i = static_cast<double>(shortfall);
  const double b = static_cast<double>(batch);

  TrimBSchedule schedule;
  schedule.delta = epsilon / (100.0 * kOneMinusInvE * (1.0 - epsilon) * eta_i);
  schedule.eps_hat = 99.0 * epsilon / (100.0 - epsilon);
  schedule.rho_b = GreedyCoverageRatio(batch);
  const double ln6d = std::log(6.0 / schedule.delta);
  const double ln_choose = LogBinomial(ni, b);
  const double root = std::sqrt(ln6d) + std::sqrt((ln_choose + ln6d) / schedule.rho_b);
  schedule.theta_max =
      2.0 * ni * root * root / (b * schedule.eps_hat * schedule.eps_hat);
  const double theta_zero =
      schedule.theta_max * b * schedule.eps_hat * schedule.eps_hat / ni;
  schedule.theta_zero = static_cast<size_t>(std::max(1.0, std::ceil(theta_zero)));
  schedule.max_iterations =
      DoublingLadderIterations(schedule.theta_zero, schedule.theta_max);
  const double t = static_cast<double>(schedule.max_iterations);
  schedule.a1 = std::log(3.0 * t / schedule.delta) + ln_choose;
  schedule.a2 = std::log(3.0 * t / schedule.delta);
  return schedule;
}

TrimB::TrimB(const DirectedGraph& graph, DiffusionModel model, TrimBOptions options)
    : graph_(&graph),
      model_(model),
      options_(options),
      parallel_sampler_(graph, model, options.pool, options.cancel, options.profile),
      collection_(graph.NumNodes()),
      name_("ASTI-" + std::to_string(options.batch_size)) {
  ASM_CHECK(options_.epsilon > 0.0 && options_.epsilon < 1.0);
  ASM_CHECK(options_.batch_size >= 1);
}

SelectionResult TrimB::SelectBatch(const ResidualView& view, Rng& rng) {
  const NodeId ni = view.NumInactive();
  const NodeId eta_i = view.shortfall;
  ASM_CHECK(eta_i >= 1 && eta_i <= ni);
  const NodeId batch = std::min<NodeId>(options_.batch_size, ni);

  const TrimBSchedule schedule = ComputeTrimBSchedule(ni, eta_i, batch, options_.epsilon);
  const RootSizeSampler root_size(ni, eta_i, options_.rounding);

  // Round 1 (full residual) is request-independent, hence served from the
  // sampler cache with zero request-RNG draws; see Trim::SelectBatch.
  const LadderSource ladder =
      options_.sampler_cache != nullptr && ni == graph_->NumNodes()
          ? CachedLadder(*options_.sampler_cache,
                         SamplerCacheKey::Mrr(model_, eta_i, options_.rounding),
                         options_.pool, options_.cancel, options_.profile)
          : OwnedLadder(parallel_sampler_, collection_, *view.inactive_nodes, view.active,
                        &root_size, rng);

  SelectionResult result;
  for (size_t t = 1; t <= schedule.max_iterations; ++t) {
    const size_t want = DoublingLadderSets(schedule.theta_zero, t);
    const CollectionView sets = ladder(want);
    if (sets.NumSets() < want || Fired(options_.cancel)) return SelectionResult{};
    // CELF lazy greedy: identical selection to the eager version (see
    // lazy_greedy_test), without the O(b·n) argmax rescans. Shares the
    // sampling pool; results are pool-size-invariant.
    const MaxCoverageResult greedy =
        LazyGreedyMaxCoverage(sets, batch, view.inactive_nodes, options_.pool,
                              options_.cancel, options_.profile);
    if (Fired(options_.cancel)) return SelectionResult{};  // coverage pass aborted mid-pick
    const double coverage = static_cast<double>(greedy.covered_sets);
    double lower, upper;
    {
      PhaseSpan certify(options_.profile, RequestPhase::kCertify);
      lower = CoverageLowerBound(coverage, schedule.a1);
      upper = CoverageUpperBound(coverage / schedule.rho_b, schedule.a2);
    }
    result.iterations = t;
    if (lower / upper >= schedule.rho_b * (1.0 - schedule.eps_hat) ||
        t == schedule.max_iterations) {
      result.seeds = greedy.selected;
      result.estimated_marginal_gain =
          static_cast<double>(eta_i) * coverage / static_cast<double>(want);
      result.num_samples = want;
      return result;
    }
  }
  ASM_CHECK(false) << "unreachable: TRIM-B always returns by iteration T";
  return result;
}

}  // namespace asti
