#include "core/trim.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "coverage/lazy_greedy.h"
#include "coverage/max_coverage.h"
#include "stats/concentration.h"
#include "util/check.h"

namespace asti {

namespace {
constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
}  // namespace

TrimSchedule ComputeCertifySchedule(NodeId num_inactive, NodeId batch, double delta,
                                    double eps_hat) {
  ASM_CHECK(batch >= 1 && batch <= num_inactive);
  ASM_CHECK(delta > 0.0 && eps_hat > 0.0 && eps_hat < 1.0);
  const double ni = static_cast<double>(num_inactive);
  const double b = static_cast<double>(batch);

  TrimSchedule schedule;
  schedule.batch = batch;
  schedule.delta = delta;
  schedule.eps_hat = eps_hat;
  schedule.rho_b = GreedyCoverageRatio(batch);
  const double ln6d = std::log(6.0 / delta);
  const double ln_choose = LogBinomial(ni, b);
  const double root = std::sqrt(ln6d) + std::sqrt((ln_choose + ln6d) / schedule.rho_b);
  schedule.theta_max = 2.0 * ni * root * root / (b * eps_hat * eps_hat);
  const double theta_zero = schedule.theta_max * b * eps_hat * eps_hat / ni;
  schedule.theta_zero = static_cast<size_t>(std::max(1.0, std::ceil(theta_zero)));
  schedule.max_iterations =
      DoublingLadderIterations(schedule.theta_zero, schedule.theta_max);
  const double t = static_cast<double>(schedule.max_iterations);
  schedule.a1 = std::log(3.0 * t / delta) + ln_choose;
  schedule.a2 = std::log(3.0 * t / delta);
  return schedule;
}

TrimSchedule ComputeTrimSchedule(NodeId num_inactive, NodeId shortfall, NodeId batch,
                                 double epsilon) {
  ASM_CHECK(epsilon > 0.0 && epsilon < 1.0);
  ASM_CHECK(shortfall >= 1 && shortfall <= num_inactive);
  const double eta_i = static_cast<double>(shortfall);
  const double delta = epsilon / (100.0 * kOneMinusInvE * (1.0 - epsilon) * eta_i);
  const double eps_hat = 99.0 * epsilon / (100.0 - epsilon);
  return ComputeCertifySchedule(num_inactive, batch, delta, eps_hat);
}

SelectionResult CertifyOnLadder(const LadderSource& ladder, const TrimSchedule& schedule,
                                const std::vector<NodeId>& candidates, double gain_scale,
                                ThreadPool* pool, const CancelScope* cancel,
                                RequestProfile* profile) {
  SelectionResult result;
  for (size_t t = 1; t <= schedule.max_iterations; ++t) {
    const size_t want = DoublingLadderSets(schedule.theta_zero, t);
    const CollectionView sets = ladder(want);
    // Short sets or a fired scope: cancelled round, empty seeds.
    if (sets.NumSets() < want || Fired(cancel)) return SelectionResult{};
    MaxCoverageResult pick;
    if (schedule.batch == 1) {
      // One argmax scan; CELF would build an inverted index every rung.
      const NodeId v_star = ArgMaxCoverage(sets, pool, profile);
      pick.selected = {v_star};
      pick.covered_sets = sets.Coverage(v_star);
    } else {
      // CELF lazy greedy: identical selection to the eager version (see
      // lazy_greedy_test), without the O(b·n) argmax rescans.
      pick = LazyGreedyMaxCoverage(sets, schedule.batch, &candidates, pool, cancel, profile);
      if (Fired(cancel)) return SelectionResult{};  // coverage pass aborted mid-pick
    }
    const double coverage = static_cast<double>(pick.covered_sets);
    double lower, upper;
    {
      PhaseSpan certify(profile, RequestPhase::kCertify);
      lower = CoverageLowerBound(coverage, schedule.a1);
      upper = CoverageUpperBound(coverage / schedule.rho_b, schedule.a2);
    }
    result.iterations = t;
    if (lower / upper >= schedule.rho_b * (1.0 - schedule.eps_hat) ||
        t == schedule.max_iterations) {
      result.seeds = std::move(pick.selected);
      result.estimated_marginal_gain = gain_scale * coverage / static_cast<double>(want);
      result.num_samples = want;
      return result;
    }
  }
  ASM_CHECK(false) << "unreachable: the certify loop always returns by iteration T";
  return result;
}

SelectionResult CertifyOnCache(SamplerCache& cache, const SamplerCacheKey& key,
                               const TrimSchedule& schedule,
                               const std::vector<NodeId>& candidates, double gain_scale,
                               ThreadPool* pool, const CancelScope* cancel,
                               RequestProfile* profile) {
  if (Fired(cancel)) return SelectionResult{};
  const SelectionMemoKey memo{schedule.batch, schedule.delta, schedule.eps_hat, gain_scale};
  if (std::optional<MemoizedSelection> hit = cache.FindSelection(key, memo, profile)) {
    return SelectionResult{std::move(hit->seeds), hit->estimated_marginal_gain,
                           hit->num_samples, hit->iterations};
  }
  SelectionResult result =
      CertifyOnLadder(CachedLadder(cache, key, pool, cancel, profile), schedule, candidates,
                      gain_scale, pool, cancel, profile);
  if (!result.seeds.empty()) {
    cache.StoreSelection(key, memo,
                         MemoizedSelection{result.seeds, result.estimated_marginal_gain,
                                           result.num_samples, result.iterations});
  }
  return result;
}

Trim::Trim(const DirectedGraph& graph, DiffusionModel model, TrimOptions options)
    : graph_(&graph),
      model_(model),
      options_(options),
      name_(options.batch_size == 1 ? "ASTI"
                                    : "ASTI-" + std::to_string(options.batch_size)) {
  ASM_CHECK(options_.epsilon > 0.0 && options_.epsilon < 1.0);
  ASM_CHECK(options_.batch_size >= 1);
}

SelectionResult Trim::SelectBatch(const ResidualView& view, Rng& rng) {
  const NodeId ni = view.NumInactive();
  const NodeId eta_i = view.shortfall;
  ASM_CHECK(eta_i >= 1 && eta_i <= ni);
  const NodeId batch = std::min<NodeId>(options_.batch_size, ni);

  const TrimSchedule schedule = ComputeTrimSchedule(ni, eta_i, batch, options_.epsilon);
  const double gain_scale = static_cast<double>(eta_i);

  // Round 1 samples the full residual (every node inactive) — the only
  // round whose distribution is request-independent, hence cacheable, and
  // whose pick is memoized on the cache entry. The cached path consumes
  // ZERO draws from `rng`, so all later rounds see identical request
  // streams whether this round hit the memo, extended, or sampled a cold
  // entry.
  if (options_.sampler_cache != nullptr && ni == graph_->NumNodes()) {
    return CertifyOnCache(*options_.sampler_cache,
                          SamplerCacheKey::Mrr(model_, eta_i, options_.rounding), schedule,
                          *view.inactive_nodes, gain_scale, options_.pool, options_.cancel,
                          options_.profile);
  }
  if (!parallel_sampler_) {
    parallel_sampler_.emplace(*graph_, model_, options_.pool, options_.cancel,
                              options_.profile);
    collection_.emplace(graph_->NumNodes());
  }
  const RootSizeSampler root_size(ni, eta_i, options_.rounding);
  return CertifyOnLadder(OwnedLadder(*parallel_sampler_, *collection_, *view.inactive_nodes,
                                     view.active, &root_size, rng),
                         schedule, *view.inactive_nodes, gain_scale, options_.pool,
                         options_.cancel, options_.profile);
}

}  // namespace asti
