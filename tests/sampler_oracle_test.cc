// Distribution oracle for reverse sampling: the library's ParallelRrSampler
// (no pool, and a pool of 2) against a naive reference sampler written
// here, compared as two independent samples from what must be one
// distribution.
//
// The bit-identity pins elsewhere prove the sampler agrees with itself;
// this test proves it draws from the right distribution, so a traversal
// rewrite that changes which sets come out (and therefore every pinned
// answer) is judged here instead. The reference flips one coin per in-edge
// for IC and runs the LT subtract-scan, uses a fresh visited vector per
// set, and shares no scratch with the library. Roots are drawn without
// replacement, their count from RootSizeSampler (1 for RR sets).
//
// Each case draws kSetsPerSide sets from both samplers under independent
// fixed seeds and runs two checks, each at family-wise false-alarm rate
// kAlpha = 1e-4:
//   - per-node coverage frequency: a two-proportion z-test per node, with
//     a Bonferroni threshold over the nodes either side ever covered;
//   - set-size distribution: a two-sample Kolmogorov–Smirnov test
//     (conservative on discrete sizes).
// So a correct sampler fails a case with probability at most 2e-4, and
// the seeds are fixed, so the outcome is deterministic. Sensitivity: of
// the 45 cases, a sampler that never lets a count-drawn node's first
// in-edge be live fails 15, one whose count draw starts from
// (1 − p)^(d − 1) instead of (1 − p)^d fails 15, one that draws live slots
// with replacement fails 14, and one that numbers every block's slots
// from 0 above the count cap fails the 5 UniformHalf cases.
//
// Graphs: weighted cascade (every node uniform, including indeg-1 nodes
// at p = 1), trivalency (non-uniform), weighted cascade after a reweight
// delta (mixed), uniform p = 1e-300 (no edge is live in practice), and
// uniform p = 0.5, whose in-hubs lie above the count cap (IC only: LT
// needs in-probabilities that sum to at most 1).
//
// GroupedTraversalTest is the bit-identity half: the library's grouped
// traversal against the node-at-a-time reference of sampler_reference.h,
// set by set from copies of one stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "delta/apply.h"
#include "delta/churn.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampler_reference.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"
#include "sampling/rr_collection.h"
#include "sampling/rr_set.h"
#include "util/bit_vector.h"
#include "util/rng.h"

namespace asti {
namespace {

constexpr size_t kSetsPerSide = 10000;
constexpr double kAlpha = 1e-4;

enum class OracleGraph { kWeightedCascade, kTrivalency, kMixed, kTiny, kHalf };
enum class SetKind { kRrFull, kRrPartial, kMrrK1Full, kMrrK10Full, kMrrResidual };

const char* GraphName(OracleGraph graph) {
  switch (graph) {
    case OracleGraph::kWeightedCascade: return "WeightedCascade";
    case OracleGraph::kTrivalency: return "Trivalency";
    case OracleGraph::kMixed: return "ReweightedCascade";
    case OracleGraph::kTiny: return "UniformTinyP";
    case OracleGraph::kHalf: return "UniformHalf";
  }
  return "";
}

const char* KindName(SetKind kind) {
  switch (kind) {
    case SetKind::kRrFull: return "RrFull";
    case SetKind::kRrPartial: return "RrPartial";
    case SetKind::kMrrK1Full: return "MrrK1Full";
    case SetKind::kMrrK10Full: return "MrrK10Full";
    case SetKind::kMrrResidual: return "MrrResidual";
  }
  return "";
}

bool IsPartial(SetKind kind) {
  return kind == SetKind::kRrPartial || kind == SetKind::kMrrResidual;
}

// One heavy-tailed skeleton for all five weightings. Chung–Lu gives each
// node one weight for both directions, so in-hubs (where the count cap
// matters) are also out-hubs that reverse traversal reaches often; light
// nodes supply indeg-1 nodes (p = 1 under weighted cascade).
EdgeSkeleton Skeleton() {
  Rng rng(8101);
  return MakeChungLu(400, 3000, 2.2, rng);
}

StatusOr<DirectedGraph> BuildOracleGraph(OracleGraph which) {
  switch (which) {
    case OracleGraph::kWeightedCascade:
      return BuildWeightedGraph(Skeleton(), WeightScheme::kWeightedCascade);
    case OracleGraph::kTrivalency: {
      Rng rng(8102);
      return BuildWeightedGraph(Skeleton(), WeightScheme::kTrivalency, 0.1, &rng);
    }
    case OracleGraph::kMixed: {
      ASM_ASSIGN_OR_RETURN(const DirectedGraph base,
                           BuildWeightedGraph(Skeleton(), WeightScheme::kWeightedCascade));
      ChurnSpec spec;
      spec.inserts = 0;
      spec.deletes = 0;
      spec.reweights = 60;
      Rng rng(8103);
      ASM_ASSIGN_OR_RETURN(const EdgeDelta delta, MakeRandomDelta(base, spec, rng));
      return ApplyDelta(base, delta);
    }
    case OracleGraph::kTiny:
      return BuildWeightedGraph(Skeleton(), WeightScheme::kUniform, 1e-300);
    case OracleGraph::kHalf:
      return BuildWeightedGraph(Skeleton(), WeightScheme::kUniform, 0.5);
  }
  return Status::Internal("unknown oracle graph");
}

DirectedGraph MakeOracleGraph(OracleGraph which) {
  auto graph = BuildOracleGraph(which);
  ASM_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

// The naive reference: k distinct roots by rejection, then a reverse BFS
// that draws for every in-edge of every node it pops.
std::vector<NodeId> ReferenceSet(const DirectedGraph& graph, DiffusionModel model,
                                 const std::vector<NodeId>& candidates,
                                 const std::vector<char>& active, NodeId num_roots,
                                 Rng& rng) {
  std::vector<char> in_set(graph.NumNodes(), 0);
  std::vector<NodeId> set;
  while (set.size() < num_roots) {
    const NodeId root = candidates[rng.NextBounded(candidates.size())];
    if (in_set[root]) continue;
    in_set[root] = 1;
    set.push_back(root);
  }
  for (size_t head = 0; head < set.size(); ++head) {
    const auto sources = graph.InNeighbors(set[head]);
    const auto probs = graph.InProbabilities(set[head]);
    if (model == DiffusionModel::kIndependentCascade) {
      for (size_t i = 0; i < sources.size(); ++i) {
        const bool live = rng.NextDouble() < probs[i];
        const NodeId u = sources[i];
        if (live && !in_set[u] && !active[u]) {
          in_set[u] = 1;
          set.push_back(u);
        }
      }
    } else {
      double x = rng.NextDouble();
      for (size_t i = 0; i < sources.size(); ++i) {
        if (x < probs[i]) {
          const NodeId u = sources[i];
          if (!in_set[u] && !active[u]) {
            in_set[u] = 1;
            set.push_back(u);
          }
          break;
        }
        x -= probs[i];
      }
    }
  }
  return set;
}

// Per-node coverage counts and the set-size sample of one side.
struct Sample {
  std::vector<uint64_t> coverage;
  std::vector<size_t> sizes;
};

// Smallest z with two-sided normal tail 2·(1 − Φ(z)) ≤ tail.
double NormalQuantile(double tail) {
  double lo = 0.0;
  double hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (std::erfc(mid / std::sqrt(2.0)) > tail ? lo : hi) = mid;
  }
  return hi;
}

struct OracleCase {
  OracleGraph graph;
  DiffusionModel model;
  SetKind kind;
  bool pooled;
};

std::string Describe(const OracleCase& c) {
  return std::string(GraphName(c.graph)) + "_" +
         (c.model == DiffusionModel::kIndependentCascade ? "IC" : "LT") + "_" +
         KindName(c.kind) + (c.pooled ? "_Pool2" : "_NoPool");
}

void PrintTo(const OracleCase& c, std::ostream* os) { *os << Describe(c); }

std::string CaseName(const testing::TestParamInfo<OracleCase>& info) {
  return Describe(info.param);
}

class SamplerOracleTest : public testing::TestWithParam<OracleCase> {};

TEST_P(SamplerOracleTest, LibraryMatchesNaiveReference) {
  const OracleCase& param = GetParam();
  const DirectedGraph graph = MakeOracleGraph(param.graph);
  const NodeId n = graph.NumNodes();

  // Residual: nothing active, or a fixed 10 % of the nodes.
  std::vector<char> active(n, 0);
  BitVector active_bits(n);
  if (IsPartial(param.kind)) {
    Rng rng(8104);
    for (NodeId marked = 0; marked < n / 10;) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (active[v]) continue;
      active[v] = 1;
      active_bits.Set(v);
      ++marked;
    }
  }
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) candidates.push_back(v);
  }
  const NodeId n_i = static_cast<NodeId>(candidates.size());
  const BitVector* active_ptr = IsPartial(param.kind) ? &active_bits : nullptr;

  // Root laws: k = 1 (RR), n_i/η_i = 1.25, 10.4, and 3.3 on the residual.
  NodeId eta = 1;
  switch (param.kind) {
    case SetKind::kRrFull:
    case SetKind::kRrPartial: break;
    case SetKind::kMrrK1Full: eta = static_cast<NodeId>(n_i / 1.25); break;
    case SetKind::kMrrK10Full: eta = static_cast<NodeId>(n_i / 10.4); break;
    case SetKind::kMrrResidual: eta = static_cast<NodeId>(n_i / 3.3); break;
  }
  const bool mrr = param.kind != SetKind::kRrFull && param.kind != SetKind::kRrPartial;
  const RootSizeSampler root_size(n_i, eta);

  const uint64_t case_seed = static_cast<uint64_t>(param.graph) * 1000 +
                             static_cast<uint64_t>(param.model) * 100 +
                             static_cast<uint64_t>(param.kind) * 10 + param.pooled;

  // Library side.
  Sample library;
  {
    std::unique_ptr<ThreadPool> pool;
    if (param.pooled) pool = std::make_unique<ThreadPool>(2);
    ParallelRrSampler sampler(graph, param.model, pool.get());
    RrCollection sets(n);
    const Rng base(0x0a11ce00 + case_seed);
    if (mrr) {
      sampler.GenerateMrrIndexed(candidates, active_ptr, root_size, 0, kSetsPerSide, sets,
                                 base);
    } else {
      sampler.GenerateIndexed(candidates, active_ptr, 0, kSetsPerSide, sets, base);
    }
    ASSERT_EQ(sets.NumSets(), kSetsPerSide);
    library.coverage.assign(sets.CoverageCounts().begin(), sets.CoverageCounts().end());
    for (size_t i = 0; i < sets.NumSets(); ++i) library.sizes.push_back(sets.Set(i).size());
  }

  // Reference side.
  Sample reference;
  reference.coverage.assign(n, 0);
  {
    Rng rng(0x0bee0000 + case_seed);
    for (size_t s = 0; s < kSetsPerSide; ++s) {
      const NodeId num_roots = mrr ? root_size.Sample(rng) : 1;
      const std::vector<NodeId> set =
          ReferenceSet(graph, param.model, candidates, active, num_roots, rng);
      for (const NodeId v : set) {
        ASSERT_FALSE(active[v]);
        ++reference.coverage[v];
      }
      reference.sizes.push_back(set.size());
    }
  }

  // Per-node coverage: two-proportion z, Bonferroni over the nodes tested.
  const double sets = static_cast<double>(kSetsPerSide);
  std::vector<double> z(n, 0.0);
  size_t tested = 0;
  for (NodeId v = 0; v < n; ++v) {
    const double a = static_cast<double>(library.coverage[v]);
    const double b = static_cast<double>(reference.coverage[v]);
    const double pooled = (a + b) / (2 * sets);
    const double se = std::sqrt(pooled * (1 - pooled) * 2 / sets);
    if (se == 0.0) continue;
    z[v] = (a / sets - b / sets) / se;
    ++tested;
  }
  ASSERT_GT(tested, 0u);
  const double z_limit = NormalQuantile(kAlpha / static_cast<double>(tested));
  const NodeId worst = static_cast<NodeId>(
      std::max_element(z.begin(), z.end(),
                       [](double x, double y) { return std::abs(x) < std::abs(y); }) -
      z.begin());
  EXPECT_LT(std::abs(z[worst]), z_limit)
      << "node " << worst << " covered by " << library.coverage[worst]
      << " library sets vs " << reference.coverage[worst] << " reference sets of "
      << kSetsPerSide << " (" << tested << " nodes tested)";

  // Set sizes: two-sample KS over the empirical CDFs.
  std::sort(library.sizes.begin(), library.sizes.end());
  std::sort(reference.sizes.begin(), reference.sizes.end());
  double ks = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < library.sizes.size() || j < reference.sizes.size()) {
    const size_t at = std::min(i < library.sizes.size() ? library.sizes[i] : SIZE_MAX,
                               j < reference.sizes.size() ? reference.sizes[j] : SIZE_MAX);
    while (i < library.sizes.size() && library.sizes[i] == at) ++i;
    while (j < reference.sizes.size() && reference.sizes[j] == at) ++j;
    ks = std::max(ks, std::abs(static_cast<double>(i) - static_cast<double>(j)) / sets);
  }
  const double ks_limit = std::sqrt(-0.5 * std::log(kAlpha / 2)) * std::sqrt(2 / sets);
  EXPECT_LT(ks, ks_limit) << "set-size distributions differ";
}

std::vector<OracleCase> AllCases() {
  // Each (graph, model) pair runs every set kind; the pool alternates so
  // both the pooled and the pool-less fan-out meet every graph and model.
  std::vector<OracleCase> cases;
  for (const OracleGraph graph : {OracleGraph::kWeightedCascade, OracleGraph::kTrivalency,
                                  OracleGraph::kMixed, OracleGraph::kTiny,
                                  OracleGraph::kHalf}) {
    for (const DiffusionModel model :
         {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
      if (graph == OracleGraph::kHalf && model == DiffusionModel::kLinearThreshold) continue;
      bool pooled = model == DiffusionModel::kLinearThreshold;
      for (const SetKind kind : {SetKind::kRrFull, SetKind::kRrPartial, SetKind::kMrrK1Full,
                                 SetKind::kMrrK10Full, SetKind::kMrrResidual}) {
        cases.push_back({graph, model, kind, pooled});
        pooled = !pooled;
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, SamplerOracleTest, testing::ValuesIn(AllCases()),
                         CaseName);

// The graphs cover what their names promise, and together every IC path of
// the traversal: the count draw, p = 1 (every edge live), coins at mixed
// nodes, and the count draw block by block above the count cap.
TEST(SamplerOracleGraphsTest, CoverEveryTraversalPath) {
  const auto count = [](const DirectedGraph& graph, auto&& predicate) {
    size_t total = 0;
    for (NodeId v = 0; v < graph.NumNodes(); ++v) total += predicate(graph, v) ? 1 : 0;
    return total;
  };
  const auto uniform = [](const DirectedGraph& g, NodeId v) {
    return g.UniformInProbability(v).has_value();
  };
  const auto count_draw = [](const DirectedGraph& g, NodeId v) {
    return g.NoLiveInProbabilities()[v] > 0.0;
  };
  const auto certain = [](const DirectedGraph& g, NodeId v) {
    return g.UniformInProbability(v) == 1.0;
  };
  const auto mixed_coins = [](const DirectedGraph& g, NodeId v) {
    return g.InDegree(v) > 0 && !g.UniformInProbability(v).has_value();
  };
  const auto block_draw = [](const DirectedGraph& g, NodeId v) {
    const std::optional<double> p = g.UniformInProbability(v);
    return p.has_value() && *p < 1.0 && g.NoLiveInProbabilities()[v] == 0.0;
  };

  const DirectedGraph cascade = MakeOracleGraph(OracleGraph::kWeightedCascade);
  EXPECT_EQ(count(cascade, mixed_coins), 0u);
  EXPECT_EQ(count(cascade, block_draw), 0u);
  EXPECT_GE(count(cascade, certain), 20u);
  EXPECT_GE(count(cascade, count_draw), 200u);

  const DirectedGraph trivalency = MakeOracleGraph(OracleGraph::kTrivalency);
  EXPECT_GT(count(trivalency, mixed_coins), count(trivalency, uniform));

  const DirectedGraph reweighted = MakeOracleGraph(OracleGraph::kMixed);
  EXPECT_GE(count(reweighted, mixed_coins), 40u);
  EXPECT_GE(count(reweighted, count_draw), 200u);

  const DirectedGraph tiny = MakeOracleGraph(OracleGraph::kTiny);
  EXPECT_EQ(count(tiny, mixed_coins), 0u);
  EXPECT_EQ(count(tiny, count_draw), count(tiny, uniform));
  EXPECT_GT(count(tiny, count_draw), 0u);

  const DirectedGraph half = MakeOracleGraph(OracleGraph::kHalf);
  EXPECT_GE(count(half, block_draw), 1u);
  EXPECT_GE(count(half, count_draw), 200u);
}

// --- Bit identity of the grouped traversal --------------------------------

constexpr size_t kGroupedSets = 2000;

// The distribution cases' residual: a fixed 10 % of the nodes active, in
// both forms.
void MarkResidual(std::vector<char>& active, BitVector& active_bits) {
  const auto n = static_cast<NodeId>(active.size());
  Rng rng(8104);
  for (NodeId marked = 0; marked < n / 10;) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (active[v]) continue;
    active[v] = 1;
    active_bits.Set(v);
    ++marked;
  }
}

std::vector<NodeId> Inactive(const std::vector<char>& active) {
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < active.size(); ++v) {
    if (!active[v]) candidates.push_back(v);
  }
  return candidates;
}

struct GroupedCase {
  std::optional<OracleGraph> graph;  // nullopt: the youtube surrogate
  DiffusionModel model;
  bool mrr;
  bool residual;
};

std::string DescribeGrouped(const GroupedCase& c) {
  return std::string(c.graph ? GraphName(*c.graph) : "Youtube") + "_" +
         (c.model == DiffusionModel::kIndependentCascade ? "IC" : "LT") + "_" +
         (c.mrr ? "Mrr" : "Rr") + (c.residual ? "Residual" : "Full");
}

void PrintTo(const GroupedCase& c, std::ostream* os) { *os << DescribeGrouped(c); }

class GroupedTraversalTest : public testing::TestWithParam<GroupedCase> {};

// 2,000 sets from copies of one stream: each equals the reference's in
// content and order, and so do the cumulative SamplerCost and the stream's
// next draw. The oracle graphs reach every draw path (count draw, coins at
// mixed nodes, p = 1, block draws; CoverEveryTraversalPath); the youtube
// surrogate at scale 0.25 gives sets of many groups. η is 3 % of the
// candidates, so every mRR set starts from 33 or 34 roots: three groups
// before its first join.
TEST_P(GroupedTraversalTest, SetsEqualNodeAtATimeReference) {
  const GroupedCase& param = GetParam();
  const DirectedGraph graph = param.graph
                                  ? MakeOracleGraph(*param.graph)
                                  : MakeSurrogateDataset(DatasetId::kYoutube, 0.25, 7).value();
  const NodeId n = graph.NumNodes();
  std::vector<char> active(n, 0);
  BitVector active_bits(n);
  if (param.residual) MarkResidual(active, active_bits);
  const std::vector<NodeId> candidates = Inactive(active);
  const BitVector* active_ptr = param.residual ? &active_bits : nullptr;
  const auto n_i = static_cast<NodeId>(candidates.size());
  const RootSizeSampler root_size(n_i, std::max<NodeId>(1, n_i * 3 / 100));

  RrSampler rr(graph, param.model);
  MrrSampler mrr(graph, param.model);
  oracle::ReferenceSampler reference(graph, param.model);
  RrCollection sets(n);
  const uint64_t seed = 0x6a0d0000 + (param.graph ? static_cast<uint64_t>(*param.graph) : 9) *
                                         100 + static_cast<uint64_t>(param.model) * 10 +
                        param.mrr * 2 + param.residual;
  Rng library_rng(seed);
  Rng reference_rng(seed);
  for (size_t s = 0; s < kGroupedSets; ++s) {
    std::vector<NodeId> expected;
    if (param.mrr) {
      expected = reference.Mrr(candidates, active_ptr, root_size.Sample(reference_rng),
                               reference_rng);
      mrr.Generate(candidates, active_ptr, root_size.Sample(library_rng), sets, library_rng);
    } else {
      expected = reference.Rr(candidates, active_ptr, reference_rng);
      rr.Generate(candidates, active_ptr, sets, library_rng);
    }
    const std::span<const NodeId> got = sets.Set(s);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected) << "set " << s;
  }
  const SamplerCost& cost = param.mrr ? mrr.cost() : rr.cost();
  EXPECT_EQ(cost.nodes_visited, reference.cost().nodes_visited);
  EXPECT_EQ(cost.edges_examined, reference.cost().edges_examined);
  EXPECT_EQ(library_rng(), reference_rng());
}

std::vector<GroupedCase> GroupedCases() {
  std::vector<GroupedCase> cases;
  for (const std::optional<OracleGraph> graph :
       {std::optional(OracleGraph::kWeightedCascade), std::optional(OracleGraph::kTrivalency),
        std::optional(OracleGraph::kMixed), std::optional(OracleGraph::kTiny),
        std::optional(OracleGraph::kHalf), std::optional<OracleGraph>()}) {
    for (const DiffusionModel model :
         {DiffusionModel::kIndependentCascade, DiffusionModel::kLinearThreshold}) {
      if (graph == OracleGraph::kHalf && model == DiffusionModel::kLinearThreshold) continue;
      for (const bool mrr : {false, true}) {
        for (const bool residual : {false, true}) cases.push_back({graph, model, mrr, residual});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, GroupedTraversalTest, testing::ValuesIn(GroupedCases()),
                         [](const testing::TestParamInfo<GroupedCase>& info) {
                           return DescribeGrouped(info.param);
                         });

}  // namespace
}  // namespace asti
