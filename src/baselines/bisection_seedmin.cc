#include "baselines/bisection_seedmin.h"

#include <numeric>

#include "coverage/lazy_greedy.h"
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

  // One greedy pass over all n nodes. Greedy picks are prefix-consistent
  // and the estimate n·Λ/θ only rises with k, so the shortest prefix that
  // reaches the target is the k (and the seed list) that a search over k
  // with one greedy solve per probe would find; all n picks when none does.
  const MaxCoverageResult greedy = LazyGreedyMaxCoverage(
      sets, n, nullptr, options.pool, options.cancel, options.profile);
  if (Fired(options.cancel)) return result;  // truncated mid-pass; discard
  uint32_t covered = 0;
  size_t k = 0;
  double estimate = 0.0;
  while (k < greedy.selected.size()) {
    covered += greedy.marginal_coverage[k++];
    estimate = static_cast<double>(n) * static_cast<double>(covered) / theta;
    if (estimate >= target) break;
  }
  result.seeds.assign(greedy.selected.begin(), greedy.selected.begin() + k);
  result.estimated_spread = estimate;
  return result;
}

}  // namespace asti
