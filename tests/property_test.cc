// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// library-wide invariants checked across models × graph families × η.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>

#include "core/asti.h"
#include "core/trim.h"
#include "diffusion/world.h"
#include "graph/generators.h"
#include "sampling/mrr_set.h"
#include "sampling/root_size.h"

namespace asti {
namespace {

enum class GraphFamily { kErdosRenyi, kBarabasiAlbert, kChungLu, kStar, kPath };

const char* FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kErdosRenyi:
      return "ER";
    case GraphFamily::kBarabasiAlbert:
      return "BA";
    case GraphFamily::kChungLu:
      return "CL";
    case GraphFamily::kStar:
      return "Star";
    case GraphFamily::kPath:
      return "Path";
  }
  return "?";
}

DirectedGraph MakeFamilyGraph(GraphFamily family, NodeId n, uint64_t seed) {
  Rng rng(seed);
  EdgeSkeleton skeleton;
  switch (family) {
    case GraphFamily::kErdosRenyi:
      skeleton = MakeErdosRenyi(n, 5 * n, rng);
      break;
    case GraphFamily::kBarabasiAlbert:
      skeleton = MakeBarabasiAlbert(n, 2, rng);
      break;
    case GraphFamily::kChungLu:
      skeleton = MakeChungLu(n, 4 * n, 2.2, rng);
      break;
    case GraphFamily::kStar:
      skeleton = MakeStar(n);
      break;
    case GraphFamily::kPath:
      skeleton = MakePath(n);
      break;
  }
  auto graph = BuildWeightedGraph(std::move(skeleton), WeightScheme::kWeightedCascade);
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

// --- ASTI end-to-end invariants across the grid ----------------------------

using AstiParam = std::tuple<DiffusionModel, GraphFamily, double /*eta fraction*/>;

class AstiPropertyTest : public ::testing::TestWithParam<AstiParam> {};

TEST_P(AstiPropertyTest, AdaptiveRunInvariants) {
  const auto [model, family, eta_fraction] = GetParam();
  const NodeId n = 150;
  const DirectedGraph graph = MakeFamilyGraph(family, n, 0xabcd);
  const NodeId eta = std::max<NodeId>(1, static_cast<NodeId>(n * eta_fraction));

  Rng world_rng(0x1234);
  AdaptiveWorld world(graph, model, eta, world_rng);
  Trim trim(graph, model, TrimOptions{0.5});
  Rng rng(0x5678);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);

  // (1) The target is always reached — the defining adaptive guarantee.
  EXPECT_TRUE(trace.target_reached);
  EXPECT_GE(trace.total_activated, eta);
  // (2) Seeds are distinct.
  std::set<NodeId> unique(trace.seeds.begin(), trace.seeds.end());
  EXPECT_EQ(unique.size(), trace.seeds.size());
  // (3) No more rounds than η (each round activates >= 1 node).
  EXPECT_LE(trace.rounds.size(), static_cast<size_t>(eta));
  // (4) Shortfall bookkeeping telescopes.
  NodeId shortfall = eta;
  for (const RoundRecord& record : trace.rounds) {
    EXPECT_EQ(record.shortfall_before, shortfall);
    shortfall -= record.truncated_gain;
  }
  EXPECT_EQ(shortfall, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsFamiliesEtas, AstiPropertyTest,
    ::testing::Combine(::testing::Values(DiffusionModel::kIndependentCascade,
                                         DiffusionModel::kLinearThreshold),
                       ::testing::Values(GraphFamily::kErdosRenyi,
                                         GraphFamily::kBarabasiAlbert,
                                         GraphFamily::kChungLu, GraphFamily::kStar,
                                         GraphFamily::kPath),
                       ::testing::Values(0.05, 0.2, 0.5)),
    [](const ::testing::TestParamInfo<AstiParam>& info) {
      return std::string(DiffusionModelName(std::get<0>(info.param))) + "_" +
             FamilyName(std::get<1>(info.param)) + "_" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

// --- TRIM-B batch-size sweep ------------------------------------------------

class BatchPropertyTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(BatchPropertyTest, BatchRunsAndReachesTarget) {
  const NodeId batch = GetParam();
  const DirectedGraph graph =
      MakeFamilyGraph(GraphFamily::kBarabasiAlbert, 200, 0x77);
  Rng world_rng(0x88);
  AdaptiveWorld world(graph, DiffusionModel::kIndependentCascade, 60, world_rng);
  Trim trim(graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5, batch});
  Rng rng(0x99);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);
  EXPECT_TRUE(trace.target_reached);
  // Each round selects exactly min(b, remaining) seeds.
  for (const RoundRecord& record : trace.rounds) {
    EXPECT_LE(record.seeds.size(), static_cast<size_t>(batch));
    EXPECT_GE(record.seeds.size(), 1u);
  }
  EXPECT_LE(trace.rounds.size(), static_cast<size_t>(60 / batch) + 60);
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16),
                         [](const ::testing::TestParamInfo<NodeId>& info) {
                           // append() rather than operator+: GCC 12's
                           // -Wrestrict false-positives on the char* +
                           // to_string temporary under -O2 (PR 105651).
                           std::string name = "b";
                           name.append(std::to_string(info.param));
                           return name;
                         });

// --- mRR sampling invariants across residual states -------------------------

using MrrParam = std::tuple<DiffusionModel, double /*active fraction*/>;

class MrrPropertyTest : public ::testing::TestWithParam<MrrParam> {};

TEST_P(MrrPropertyTest, SamplesRespectResidualState) {
  const auto [model, active_fraction] = GetParam();
  const DirectedGraph graph = MakeFamilyGraph(GraphFamily::kErdosRenyi, 120, 0xaa);
  BitVector active(120);
  std::vector<NodeId> inactive;
  Rng pick_rng(0xbb);
  for (NodeId v = 0; v < 120; ++v) {
    if (pick_rng.NextDouble() < active_fraction) {
      active.Set(v);
    } else {
      inactive.push_back(v);
    }
  }
  ASSERT_GE(inactive.size(), 10u);
  const NodeId ni = static_cast<NodeId>(inactive.size());
  const NodeId eta_i = std::max<NodeId>(1, ni / 5);

  MrrSampler sampler(graph, model);
  RootSizeSampler root_size(ni, eta_i);
  RrCollection collection(120);
  Rng rng(0xcc);
  for (int i = 0; i < 400; ++i) {
    sampler.Generate(inactive, &active, root_size.Sample(rng), collection, rng);
  }
  // (1) No active node ever appears.
  for (NodeId v = 0; v < 120; ++v) {
    if (active.Get(v)) {
      EXPECT_EQ(collection.Coverage(v), 0u);
    }
  }
  // (2) Every set has >= floor(n_i/η_i) distinct entries (the roots) and no
  //     duplicates.
  const NodeId k_floor = ni / eta_i;
  for (size_t s = 0; s < collection.NumSets(); ++s) {
    auto set = collection.Set(s);
    std::set<NodeId> unique(set.begin(), set.end());
    EXPECT_EQ(unique.size(), set.size());
    EXPECT_GE(set.size(), static_cast<size_t>(k_floor));
  }
  // (3) Total coverage equals total entries.
  size_t coverage_total = 0;
  for (NodeId v = 0; v < 120; ++v) coverage_total += collection.Coverage(v);
  EXPECT_EQ(coverage_total, collection.TotalEntries());
}

INSTANTIATE_TEST_SUITE_P(
    ModelsActiveFractions, MrrPropertyTest,
    ::testing::Combine(::testing::Values(DiffusionModel::kIndependentCascade,
                                         DiffusionModel::kLinearThreshold),
                       ::testing::Values(0.0, 0.3, 0.7)),
    [](const ::testing::TestParamInfo<MrrParam>& info) {
      return std::string(DiffusionModelName(std::get<0>(info.param))) + "_active" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

// --- Schedule monotonicity sweeps -------------------------------------------

class ScheduleParamTest
    : public ::testing::TestWithParam<std::tuple<NodeId /*ni*/, NodeId /*eta_i*/>> {};

TEST_P(ScheduleParamTest, TrimScheduleSane) {
  const auto [ni, eta_i] = GetParam();
  if (eta_i > ni) GTEST_SKIP();
  for (NodeId batch : {NodeId{1}, NodeId{4}}) {
    SCOPED_TRACE(testing::Message() << "b=" << batch);
    const TrimSchedule schedule = ComputeTrimSchedule(ni, eta_i, batch, 0.5);
    EXPECT_GT(schedule.delta, 0.0);
    EXPECT_LT(schedule.delta, 1.0);
    EXPECT_GT(schedule.eps_hat, 0.0);
    EXPECT_LT(schedule.eps_hat, 1.0);
    EXPECT_GT(schedule.rho_b, 0.0);
    EXPECT_LE(schedule.rho_b, 1.0);
    EXPECT_GE(schedule.theta_zero, 1u);
    EXPECT_GE(schedule.theta_max, static_cast<double>(schedule.theta_zero));
    EXPECT_GE(schedule.max_iterations, 1u);
    EXPECT_GT(schedule.a1, schedule.a2);  // a1 carries the extra ln C(n_i, b)
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleParamTest,
    ::testing::Combine(::testing::Values<NodeId>(10, 100, 10000, 1000000),
                       ::testing::Values<NodeId>(1, 2, 10, 5000)),
    [](const ::testing::TestParamInfo<std::tuple<NodeId, NodeId>>& info) {
      std::string name = "n";  // append(): see the Batches generator above
      name.append(std::to_string(std::get<0>(info.param)));
      name.append("_eta");
      name.append(std::to_string(std::get<1>(info.param)));
      return name;
    });

}  // namespace
}  // namespace asti
