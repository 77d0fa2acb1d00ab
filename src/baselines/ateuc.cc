#include "baselines/ateuc.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "coverage/lazy_greedy.h"
#include "parallel/parallel_sampler.h"
#include "sampling/rr_collection.h"
#include "sampling/shared_collection.h"
#include "stats/concentration.h"
#include "util/check.h"

namespace asti {

namespace {

constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;

}  // namespace

AteucResult RunAteuc(const DirectedGraph& graph, DiffusionModel model, NodeId eta,
                     const AteucOptions& options, Rng& rng) {
  const NodeId n = graph.NumNodes();
  ASM_CHECK(eta >= 1 && eta <= n);
  ASM_CHECK(options.epsilon > 0.0 && options.epsilon < 1.0);

  std::vector<NodeId> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  RrCollection collection(n);
  ParallelRrSampler parallel_sampler(graph, model, options.pool, options.cancel,
                                     options.profile);
  // ATEUC samples the full graph throughout, so with a cache its entire
  // run reads the shared (kRr, model) entry at the exact ladder lengths,
  // independent of how many sets the cache already held.
  const LadderSource ladder =
      options.sampler_cache != nullptr
          ? CachedLadder(*options.sampler_cache, SamplerCacheKey::Rr(model), options.pool,
                         options.cancel, options.profile)
          : OwnedLadder(parallel_sampler, collection, all_nodes, /*active=*/nullptr,
                        /*root_size=*/nullptr, rng);
  const double n_d = static_cast<double>(n);
  // Failure budget per bound evaluation; the union bound over greedy
  // prefixes and doubling iterations follows Han et al.'s recipe.
  const double a = std::log(n_d / options.epsilon) +
                   std::log(static_cast<double>(options.max_doublings + 1));

  AteucResult result;
  size_t target_samples = options.initial_samples;
  size_t previous_s_u = 0;
  for (size_t round = 0; round <= options.max_doublings; ++round) {
    // A fired scope short-circuits the doubling ladder: return the best
    // candidate so far (possibly no seeds) and let the caller discard it.
    if (Fired(options.cancel)) return result;
    const CollectionView sets = ladder(target_samples);
    if (sets.NumSets() < target_samples || Fired(options.cancel)) return result;
    const double theta = static_cast<double>(sets.NumSets());
    // Greedy can never need more than η picks: each pick either covers a
    // new set or coverage is exhausted.
    const MaxCoverageResult greedy = LazyGreedyMaxCoverage(
        sets, eta, nullptr, options.pool, options.cancel, options.profile);
    if (Fired(options.cancel)) return result;  // curve truncated mid-pick; bounds unusable
    // The greedy curve: the picks up to the first zero gain (every set
    // covered) and the coverage after each.
    const auto gains = greedy.marginal_coverage.begin();
    const size_t length = std::find(gains, greedy.marginal_coverage.end(), 0u) - gains;
    const std::vector<NodeId> picks(greedy.selected.begin(), greedy.selected.begin() + length);
    std::vector<uint32_t> cumulative_coverage(length);
    std::partial_sum(gains, gains + length, cumulative_coverage.begin());
    // Everything from here to the doubling decision is bound evaluation.
    PhaseSpan certify(options.profile, RequestPhase::kCertify);

    // S_u: first prefix whose spread estimate reaches η. Following the
    // empirical behaviour the ASTI paper reports for ATEUC (E[I(S)] ≈ η,
    // hence per-realization under- and over-shoots, Fig. 8), the stopping
    // rule uses the unbiased point estimate n·Λ/θ; the certified bounds
    // drive s_l and the gap condition.
    size_t s_u = 0;
    const double target = options.target_slack * static_cast<double>(eta);
    for (size_t j = 0; j < picks.size(); ++j) {
      const double estimate =
          n_d * static_cast<double>(cumulative_coverage[j]) / theta;
      if (estimate >= target) {
        s_u = j + 1;
        break;
      }
    }

    // S_l: the optimum cannot be smaller than the first j where even the
    // inflated greedy coverage (best size-j coverage ≤ greedy_j/(1−1/e))
    // upper-bounds below η.
    size_t s_l = 1;
    for (size_t j = 0; j < picks.size(); ++j) {
      const double optimistic = CoverageUpperBound(
          static_cast<double>(cumulative_coverage[j]) / kOneMinusInvE, a);
      if (n_d * optimistic / theta < static_cast<double>(eta)) {
        s_l = j + 2;  // no size-(j+1) set reaches η
      } else {
        break;
      }
    }

    result.doublings = round;
    result.num_samples = sets.NumSets();
    if (s_u > 0) {
      result.seeds.assign(picks.begin(), picks.begin() + s_u);
      result.optimal_lower_bound = s_l;
      result.estimated_spread =
          n_d * static_cast<double>(cumulative_coverage[s_u - 1]) / theta;
      const bool gap_met = s_u <= 2 * s_l;
      const bool stabilized =
          s_u == previous_s_u && sets.NumSets() >= options.stable_after;
      if (gap_met || stabilized || round == options.max_doublings) return result;
      previous_s_u = s_u;
    } else if (round == options.max_doublings) {
      // Certification never succeeded (tiny graphs / extreme η): fall back
      // to the full greedy curve, which covers every sampled set.
      result.seeds = picks;
      result.optimal_lower_bound = s_l;
      result.estimated_spread =
          cumulative_coverage.empty()
              ? 0.0
              : n_d * static_cast<double>(cumulative_coverage.back()) / theta;
      return result;
    }
    target_samples *= 2;
  }
  ASM_CHECK(false) << "unreachable: ATEUC returns within max_doublings";
  return result;
}

}  // namespace asti
