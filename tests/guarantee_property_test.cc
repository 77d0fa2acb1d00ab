// Property test of TRIM's per-round bound against Monte Carlo
// (diffusion/monte_carlo.h). The proofs of Theorems 3.7 and 4.2 rest on one
// bound per round: the batch's expected truncated marginal spread reaches
// ρ_b(1 − 1/e)(1 − ε)·OPT_i. The graphs here are small enough to enumerate
// every b-subset of the residual nodes, so OPT_i is a Monte Carlo maximum,
// not an estimate from the code under test. For b ∈ {1, 2, 4}, IC and LT,
// the test runs ASTI rounds on hidden worlds and checks, at every residual
// state those rounds reach:
//   - every batch the one-hop certificate answers reaches
//     ρ_b(1 − 1/e)(1 − ε)·η_i ≥ the bound, within kBandSigmas standard
//     errors, every time (the certificate claims probability 1);
//   - CertifyOnLadder's pick reaches ρ_b(1 − 1/e)(1 − ε)·OPT_i within the
//     same band, failing no more often than the schedule's per-round δ
//     allows.
// The Monte Carlo model of a residual state is the one TRIM samples: active
// nodes removed, original probabilities. Under LT the history only raises
// the chance that an inactive node picks an inactive in-neighbour, so the
// true conditional spread is at least this.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/trim.h"
#include "coverage/max_coverage.h"
#include "diffusion/monte_carlo.h"
#include "diffusion/world.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "parallel/parallel_sampler.h"
#include "sampling/root_size.h"
#include "sampling/rr_collection.h"

namespace asti {
namespace {

constexpr double kOneMinusInvE = 1.0 - 1.0 / 2.718281828459045;
// Standard errors a Monte Carlo mean may fall below the bound it is held to.
constexpr double kBandSigmas = 4.0;
constexpr size_t kOneHopTrials = 4000;
constexpr size_t kOptTrials = 400;
constexpr size_t kRunsPerCase = 3;

struct Estimate {
  double mean = 0.0;
  double std_error = 0.0;
};

// Δ(seeds | active) truncated at `shortfall`, over `trials` realizations of
// stream `stream`: equal streams give every seed set the same realizations.
Estimate MarginalSpread(MonteCarloEstimator& mc, const std::vector<NodeId>& seeds,
                        const BitVector& active, NodeId shortfall, size_t trials,
                        uint64_t stream) {
  Rng rng(stream);
  double sum = 0.0;
  double squares = 0.0;
  for (size_t t = 0; t < trials; ++t) {
    const double x = mc.EstimateMarginalTruncatedSpread(seeds, active, shortfall, 1, rng);
    sum += x;
    squares += x * x;
  }
  const double n = static_cast<double>(trials);
  const double mean = sum / n;
  return {mean, std::sqrt(std::max(0.0, squares / n - mean * mean) / n)};
}

// max over every `size`-subset of `nodes` of its estimate, on common streams.
Estimate BestSubset(MonteCarloEstimator& mc, const std::vector<NodeId>& nodes, NodeId size,
                    const BitVector& active, NodeId shortfall, uint64_t stream) {
  Estimate best;
  std::vector<bool> chosen(nodes.size(), false);
  std::fill(chosen.begin(), chosen.begin() + size, true);
  do {
    std::vector<NodeId> subset;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (chosen[i]) subset.push_back(nodes[i]);
    }
    const Estimate value = MarginalSpread(mc, subset, active, shortfall, kOptTrials, stream);
    if (value.mean > best.mean) best = value;
  } while (std::prev_permutation(chosen.begin(), chosen.end()));
  return best;
}

// Nodes 0 and 1 both reach leaves 2-6, and 7-11 form a path. Once node 0 is
// seeded, node 1's out-edges end mostly at active leaves: a certificate that
// counted edges into active nodes would credit node 1 with them.
DirectedGraph TwinHubs(DiffusionModel model) {
  const double p = model == DiffusionModel::kIndependentCascade ? 0.9 : 0.5;
  GraphBuilder builder(12);
  for (NodeId leaf = 2; leaf <= 6; ++leaf) {
    EXPECT_TRUE(builder.AddEdge(0, leaf, p).ok());
    EXPECT_TRUE(builder.AddEdge(1, leaf, p).ok());
  }
  for (NodeId v = 7; v < 11; ++v) EXPECT_TRUE(builder.AddEdge(v, v + 1, 0.5).ok());
  return std::move(builder.Build()).value();
}

struct Case {
  const char* name;
  DirectedGraph graph;
  NodeId eta;
};

std::vector<Case> Cases(DiffusionModel model) {
  Rng rng(2024);
  std::vector<Case> cases;
  cases.push_back({"twin-hubs", TwinHubs(model), 9});
  cases.push_back({"erdos-renyi", BuildWeightedGraph(MakeErdosRenyi(10, 30, rng),
                                                     WeightScheme::kWeightedCascade)
                                      .value(),
                   8});
  cases.push_back({"barabasi-albert", BuildWeightedGraph(MakeBarabasiAlbert(12, 2, rng),
                                                         WeightScheme::kWeightedCascade)
                                          .value(),
                   9});
  return cases;
}

// Smallest k with Pr[Poisson(mean) > k] ≤ 1e-6: the failures that per-round
// failure probabilities summing to `mean` allow.
size_t AllowedFailures(double mean) {
  double term = std::exp(-mean);
  double cdf = term;
  size_t k = 0;
  while (1.0 - cdf > 1e-6) {
    ++k;
    term *= mean / static_cast<double>(k);
    cdf += term;
  }
  return k;
}

struct Tally {
  size_t one_hop_checked = 0;
  size_t one_hop_failed = 0;
  size_t ladder_checked = 0;
  size_t ladder_failed = 0;
  double ladder_delta = 0.0;  // Σ δ_i over the ladder rounds checked
};

// Checks both bounds at one residual state.
void CheckState(const Case& c, DiffusionModel model, NodeId b, const ResidualView& view,
                uint64_t stream, Tally& tally) {
  const NodeId eta_i = view.shortfall;
  const NodeId batch = std::min(b, view.NumInactive());
  const double rho = GreedyCoverageRatio(batch);
  MonteCarloEstimator mc(c.graph, model);
  SCOPED_TRACE(testing::Message() << c.name << " " << DiffusionModelName(model) << " b=" << b
                                  << " eta_i=" << eta_i << " n_i=" << view.NumInactive());

  for (double epsilon : {0.2, 0.5}) {
    const std::optional<SelectionResult> certified =
        CertifyOneHop(c.graph, view, batch, epsilon);
    if (!certified) continue;
    ASSERT_EQ(certified->seeds.size(), batch);
    ASSERT_EQ(certified->num_samples, 0u);
    const double bound = rho * kOneMinusInvE * (1.0 - epsilon) * eta_i;
    const Estimate value =
        MarginalSpread(mc, certified->seeds, *view.active, eta_i, kOneHopTrials, stream);
    ++tally.one_hop_checked;
    if (value.mean + kBandSigmas * value.std_error < bound) {
      ++tally.one_hop_failed;
      ADD_FAILURE() << "one-hop batch at eps=" << epsilon << " reads " << value.mean
                    << " +- " << value.std_error << " < " << bound
                    << " (certified bound " << certified->estimated_marginal_gain << ")";
    }
  }

  constexpr double kEpsilon = 0.5;
  const TrimSchedule schedule =
      ComputeTrimSchedule(view.NumInactive(), eta_i, batch, kEpsilon);
  ParallelRrSampler sampler(c.graph, model, nullptr);
  RrCollection owned(c.graph.NumNodes());
  const RootSizeSampler root_size(view.NumInactive(), eta_i, RootRounding::kRandomized);
  Rng ladder_rng(stream ^ 0x5eed);
  const SelectionResult pick = CertifyOnLadder(
      OwnedLadder(sampler, owned, *view.inactive_nodes, view.active, &root_size, ladder_rng),
      schedule, *view.inactive_nodes, eta_i, nullptr, nullptr, nullptr);
  ASSERT_EQ(pick.seeds.size(), batch);
  const Estimate opt =
      BestSubset(mc, *view.inactive_nodes, batch, *view.active, eta_i, stream + 1);
  const Estimate got = MarginalSpread(mc, pick.seeds, *view.active, eta_i, kOptTrials,
                                      stream + 1);
  const double ratio = rho * kOneMinusInvE * (1.0 - kEpsilon);
  ++tally.ladder_checked;
  tally.ladder_delta += schedule.delta;
  if (got.mean + kBandSigmas * (got.std_error + ratio * opt.std_error) < ratio * opt.mean) {
    ++tally.ladder_failed;
  }
}

// ASTI with TRIM at batch b on `runs` hidden worlds of `c`, checking every
// state a round starts from.
void RunCase(const Case& c, DiffusionModel model, NodeId b, Tally& tally) {
  Trim trim(c.graph, model, TrimOptions{0.5, b});
  for (uint64_t run = 0; run < kRunsPerCase; ++run) {
    Rng world_rng(7000 + 31 * run + b);
    AdaptiveWorld world(c.graph, model, c.eta, world_rng);
    Rng policy_rng(9000 + run);
    while (!world.TargetReached()) {
      ResidualView view;
      view.active = &world.ActiveMask();
      view.inactive_nodes = &world.InactiveNodes();
      view.shortfall = world.Shortfall();
      CheckState(c, model, b, view, 100000 * (run + 1) + world.NumActive(), tally);
      const SelectionResult selection = trim.SelectBatch(view, policy_rng);
      ASSERT_FALSE(selection.seeds.empty());
      world.Observe(selection.seeds);
    }
  }
}

TEST(GuaranteePropertyTest, OneHopAndLadderMeetTheRoundBound) {
  Tally tally;
  for (DiffusionModel model :
       {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
    for (const Case& c : Cases(model)) {
      for (NodeId b : {1u, 2u, 4u}) RunCase(c, model, b, tally);
    }
  }
  std::cout << "one-hop batches checked: " << tally.one_hop_checked
            << ", below the bound: " << tally.one_hop_failed
            << "; ladder picks checked: " << tally.ladder_checked
            << ", below: " << tally.ladder_failed << " (sum of delta "
            << tally.ladder_delta << ")\n";
  EXPECT_EQ(tally.one_hop_failed, 0u);
  EXPECT_LE(tally.ladder_failed, AllowedFailures(tally.ladder_delta));
  // Neither check may pass by running on nothing.
  EXPECT_GE(tally.one_hop_checked, 40u);
  EXPECT_GE(tally.ladder_checked, 40u);
}

}  // namespace
}  // namespace asti
