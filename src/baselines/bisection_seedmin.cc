#include "baselines/bisection_seedmin.h"

#include <numeric>

#include "coverage/max_coverage.h"
#include "parallel/parallel_sampler.h"
#include "sampling/rr_collection.h"
#include "sampling/shared_collection.h"
#include "util/check.h"

namespace asti {

BisectionResult RunBisectionSeedMin(const DirectedGraph& graph, DiffusionModel model,
                                    NodeId eta, const BisectionOptions& options,
                                    Rng& rng) {
  const NodeId n = graph.NumNodes();
  ASM_CHECK(eta >= 1 && eta <= n);
  ASM_CHECK(options.samples >= 1);

  std::vector<NodeId> all_nodes(n);
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  // One shared RR collection serves every k (the greedy curve is nested in
  // k, so a single greedy pass would suffice — but we keep the literal
  // bisection protocol, whose cost profile is what this baseline is for).
  RrCollection collection(n);
  ParallelRrSampler parallel_sampler(graph, model, options.pool, options.cancel,
                                     options.profile);
  const LadderSource ladder =
      options.sampler_cache != nullptr
          ? CachedLadder(*options.sampler_cache, SamplerCacheKey::Rr(model), options.pool,
                         options.cancel, options.profile)
          : OwnedLadder(parallel_sampler, collection, all_nodes, /*active=*/nullptr,
                        /*root_size=*/nullptr, rng);
  BisectionResult result;
  const CollectionView sets = ladder(options.samples);
  if (sets.NumSets() < options.samples || Fired(options.cancel)) return result;  // discard
  result.num_samples = sets.NumSets();
  const double theta = static_cast<double>(sets.NumSets());
  const double target = options.target_slack * static_cast<double>(eta);

  auto spread_of_k = [&](NodeId k) {
    ++result.im_evaluations;
    const MaxCoverageResult greedy = GreedyMaxCoverage(
        sets, k, nullptr, options.pool, options.cancel, options.profile);
    return static_cast<double>(n) * static_cast<double>(greedy.covered_sets) / theta;
  };

  // Exponential search for a feasible upper bound, then bisection. A fired
  // scope aborts between IM evaluations (each one is a full greedy pass).
  NodeId high = 1;
  while (high < n && spread_of_k(high) < target) {
    if (Fired(options.cancel)) return result;
    high = std::min<NodeId>(n, high * 2);
  }
  NodeId low = high > 1 ? high / 2 : 1;
  while (low < high) {
    if (Fired(options.cancel)) return result;
    const NodeId mid = low + (high - low) / 2;
    if (spread_of_k(mid) >= target) {
      high = mid;
    } else {
      low = mid + 1;
    }
  }
  if (Fired(options.cancel)) return result;

  const MaxCoverageResult final_greedy = GreedyMaxCoverage(
      sets, high, nullptr, options.pool, options.cancel, options.profile);
  result.seeds = final_greedy.selected;
  result.estimated_spread =
      static_cast<double>(n) * static_cast<double>(final_greedy.covered_sets) / theta;
  return result;
}

}  // namespace asti
