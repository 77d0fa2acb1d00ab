#include "core/trim.h"

#include <cmath>

#include "coverage/max_coverage.h"
#include "stats/concentration.h"
#include "util/check.h"

namespace asti {

namespace {
constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
}  // namespace

TrimSchedule ComputeTrimSchedule(NodeId num_inactive, NodeId shortfall, double epsilon) {
  ASM_CHECK(epsilon > 0.0 && epsilon < 1.0);
  ASM_CHECK(shortfall >= 1 && shortfall <= num_inactive);
  const double ni = static_cast<double>(num_inactive);
  const double eta_i = static_cast<double>(shortfall);

  TrimSchedule schedule;
  schedule.delta = epsilon / (100.0 * kOneMinusInvE * (1.0 - epsilon) * eta_i);
  schedule.eps_hat = 99.0 * epsilon / (100.0 - epsilon);
  const double ln6d = std::log(6.0 / schedule.delta);
  const double root = std::sqrt(ln6d) + std::sqrt(std::log(ni) + ln6d);
  schedule.theta_max =
      2.0 * ni * root * root / (schedule.eps_hat * schedule.eps_hat);
  const double theta_zero =
      schedule.theta_max * schedule.eps_hat * schedule.eps_hat / ni;
  schedule.theta_zero = static_cast<size_t>(std::max(1.0, std::ceil(theta_zero)));
  schedule.max_iterations =
      DoublingLadderIterations(schedule.theta_zero, schedule.theta_max);
  const double t = static_cast<double>(schedule.max_iterations);
  schedule.a1 = std::log(3.0 * t / schedule.delta) + std::log(ni);
  schedule.a2 = std::log(3.0 * t / schedule.delta);
  return schedule;
}

Trim::Trim(const DirectedGraph& graph, DiffusionModel model, TrimOptions options)
    : graph_(&graph),
      model_(model),
      options_(options),
      parallel_sampler_(graph, model, options.pool, options.cancel, options.profile),
      collection_(graph.NumNodes()) {
  ASM_CHECK(options_.epsilon > 0.0 && options_.epsilon < 1.0);
}

SelectionResult Trim::SelectBatch(const ResidualView& view, Rng& rng) {
  const NodeId ni = view.NumInactive();
  const NodeId eta_i = view.shortfall;
  ASM_CHECK(eta_i >= 1 && eta_i <= ni);

  const TrimSchedule schedule = ComputeTrimSchedule(ni, eta_i, options_.epsilon);
  const RootSizeSampler root_size(ni, eta_i, options_.rounding);

  // Round 1 samples the full residual (every node inactive) — the only
  // round whose distribution is request-independent, hence cacheable. The
  // cached ladder consumes ZERO draws from `rng`, so all later rounds see
  // identical request streams whether this round hit, extended, or (with a
  // request-private cache, --no-cache) freshly sampled.
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
    // Short sets or a fired scope: cancelled round, empty seeds.
    if (sets.NumSets() < want || Fired(options_.cancel)) return SelectionResult{};
    const NodeId v_star = ArgMaxCoverage(sets, options_.pool, options_.profile);
    const double coverage = static_cast<double>(sets.Coverage(v_star));
    double lower, upper;
    {
      PhaseSpan certify(options_.profile, RequestPhase::kCertify);
      lower = CoverageLowerBound(coverage, schedule.a1);
      upper = CoverageUpperBound(coverage, schedule.a2);
    }
    result.iterations = t;
    if (lower / upper >= 1.0 - schedule.eps_hat || t == schedule.max_iterations) {
      result.seeds = {v_star};
      result.estimated_marginal_gain =
          static_cast<double>(eta_i) * coverage / static_cast<double>(want);
      result.num_samples = want;
      return result;
    }
  }
  ASM_CHECK(false) << "unreachable: TRIM always returns by iteration T";
  return result;
}

}  // namespace asti
