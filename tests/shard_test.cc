// Tests for src/shard/: partition plans (build / validate / extract /
// stitch), the sharded snapshot store, and the serving contract — a graph
// registered behind a ShardTopology produces results bit-identical to the
// unsharded path at every (shard count x pool size), stays pinned across
// a mid-stream Swap of the sharded entry, and a malformed partition plan
// is refused with InvalidArgument rather than served. Runs in the
// ThreadSanitizer CI job (per-shard pools + coordinator threads).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "graph/generators.h"
#include "shard/partition.h"
#include "shard/runtime.h"
#include "shard/sharded_store.h"
#include "shard/topology.h"

namespace asti {
namespace {

DirectedGraph MakeGraph(NodeId nodes, uint64_t seed) {
  Rng rng(seed);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(nodes, 3, rng),
                                  WeightScheme::kWeightedCascade);
  ASM_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(graph).value();
}

std::string Fingerprint(const SolveResult& result) {
  std::ostringstream out;
  out << result.graph_name << '@' << result.graph_epoch << '|';
  for (double spread : result.spreads) out << spread << ',';
  out << '|';
  for (size_t count : result.seed_counts) out << count << ',';
  for (const AdaptiveRunTrace& trace : result.traces) {
    for (NodeId seed : trace.seeds) out << seed << ' ';
    out << '/' << trace.total_activated << ';';
  }
  return out.str();
}

std::string TempDirFor(const std::string& name) {
  const std::string dir = testing::TempDir() + "/shard_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- Partition plans --------------------------------------------------------

TEST(PartitionTest, PlanCoversGraphWithBalancedEdges) {
  const DirectedGraph graph = MakeGraph(300, 5);
  const auto plan = BuildPartitionPlan(graph, 4);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->num_shards, 4u);
  EXPECT_EQ(plan->num_nodes, graph.NumNodes());
  EXPECT_EQ(plan->num_edges, graph.NumEdges());
  ASSERT_EQ(plan->cuts.size(), 5u);
  EXPECT_EQ(plan->cuts.front(), 0u);
  EXPECT_EQ(plan->cuts.back(), graph.NumNodes());
  EdgeId total = 0;
  for (uint32_t k = 0; k < 4; ++k) {
    EXPECT_LE(plan->cuts[k], plan->cuts[k + 1]);
    total += plan->shard_edges[k];
    // Every shard carries real work on a 300-node power-law graph.
    EXPECT_GT(plan->shard_edges[k], 0u);
  }
  EXPECT_EQ(total, graph.NumEdges());
  EXPECT_TRUE(ValidatePlan(*plan).ok());
}

TEST(PartitionTest, RejectsBadShardCounts) {
  const DirectedGraph graph = MakeGraph(60, 6);
  EXPECT_EQ(BuildPartitionPlan(graph, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildPartitionPlan(graph, kMaxShards + 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PartitionTest, MoreShardsThanNodesLeavesTrailingShardsEmpty) {
  const DirectedGraph graph = MakeGraph(10, 7);
  const auto plan = BuildPartitionPlan(graph, 16);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(ValidatePlan(*plan).ok());
  EdgeId total = 0;
  for (EdgeId edges : plan->shard_edges) total += edges;
  EXPECT_EQ(total, graph.NumEdges());
}

TEST(PartitionTest, ExtractStitchRoundTripsBitIdentically) {
  const DirectedGraph graph = MakeGraph(250, 8);
  const auto plan = BuildPartitionPlan(graph, 3);
  ASSERT_TRUE(plan.ok());
  std::vector<DirectedGraph> shards;
  for (uint32_t k = 0; k < 3; ++k) {
    auto shard = ExtractShard(graph, *plan, k);
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    // The plan's per-shard digest is computed over exactly this graph.
    EXPECT_EQ(ForwardCsrDigest(*shard), plan->shard_digests[k]);
    EXPECT_EQ(shard->NumNodes(), graph.NumNodes());
    shards.push_back(std::move(shard).value());
  }
  const auto stitched = StitchShards(*plan, shards);
  ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
  EXPECT_EQ(ForwardCsrDigest(*stitched), plan->graph_digest);
  EXPECT_EQ(ForwardCsrDigest(*stitched), ForwardCsrDigest(graph));
  EXPECT_EQ(stitched->NumEdges(), graph.NumEdges());
}

TEST(PartitionTest, MalformedPlanIsInvalidArgument) {
  const DirectedGraph graph = MakeGraph(120, 9);
  const auto good = BuildPartitionPlan(graph, 2);
  ASSERT_TRUE(good.ok());

  PartitionPlan bad = *good;
  bad.cuts[1] = bad.num_nodes + 5;  // cut beyond the node range
  EXPECT_EQ(ValidatePlan(bad).code(), StatusCode::kInvalidArgument);

  bad = *good;
  bad.shard_edges[0] += 1;  // edge totals no longer sum to num_edges
  EXPECT_EQ(ValidatePlan(bad).code(), StatusCode::kInvalidArgument);

  bad = *good;
  bad.shard_digests.pop_back();  // digest count disagrees with shards
  EXPECT_EQ(ValidatePlan(bad).code(), StatusCode::kInvalidArgument);

  // Stitching under a plan that disagrees with the shard shapes is refused.
  std::vector<DirectedGraph> shards;
  for (uint32_t k = 0; k < 2; ++k) {
    shards.push_back(std::move(ExtractShard(graph, *good, k)).value());
  }
  PartitionPlan shifted = *good;
  shifted.cuts[1] = shifted.cuts[1] / 2;
  EXPECT_EQ(StitchShards(shifted, shards).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Sharded snapshot store -------------------------------------------------

TEST(ShardedStoreTest, SaveLoadRoundTripsGraphAndTopology) {
  const std::string dir = TempDirFor("roundtrip");
  const DirectedGraph graph = MakeGraph(220, 11);
  ASSERT_TRUE(SaveShardedSnapshot(graph, "g", WeightScheme::kWeightedCascade,
                                  /*num_shards=*/3, dir)
                  .ok());
  const auto loaded = LoadShardedSnapshot(dir, "g");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "g");
  EXPECT_EQ(loaded->weight_scheme, WeightScheme::kWeightedCascade);
  ASSERT_NE(loaded->graph, nullptr);
  EXPECT_EQ(ForwardCsrDigest(*loaded->graph), ForwardCsrDigest(graph));
  ASSERT_NE(loaded->topology, nullptr);
  EXPECT_EQ(loaded->topology->num_shards(), 3u);
  ASSERT_EQ(loaded->topology->shards.size(), 3u);
  for (uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(ForwardCsrDigest(*loaded->topology->shards[k]),
              loaded->topology->plan.shard_digests[k]);
  }
}

TEST(ShardedStoreTest, MissingPlanIsNotFound) {
  const std::string dir = TempDirFor("missing");
  EXPECT_EQ(LoadShardedSnapshot(dir, "nope").status().code(),
            StatusCode::kNotFound);
}

TEST(ShardedStoreTest, MalformedPlanFileIsInvalidArgument) {
  const std::string dir = TempDirFor("malformed");
  const DirectedGraph graph = MakeGraph(150, 12);
  ASSERT_TRUE(SaveShardedSnapshot(graph, "g", WeightScheme::kWeightedCascade,
                                  /*num_shards=*/2, dir)
                  .ok());

  // Garbage header.
  {
    std::ofstream out(ShardPlanPath(dir, "g"), std::ios::trunc);
    out << "not a plan\n";
  }
  auto loaded = LoadShardedSnapshot(dir, "g");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("malformed shard plan"),
            std::string::npos);

  // Structurally broken plan: shard count that the rows do not match.
  {
    std::ofstream out(ShardPlanPath(dir, "g"), std::ios::trunc);
    out << "ASMS-PLAN v1\nname g\nscheme weighted_cascade\nshards 2\n"
        << "nodes 150\nedges 1\ngraph_digest 1\ncuts 0 10 150\n"
        << "shard 0 edges 1 digest 1\n";  // second shard row missing
  }
  EXPECT_EQ(LoadShardedSnapshot(dir, "g").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedStoreTest, ShardFileFromAnotherGraphIsRefused) {
  const std::string dir = TempDirFor("crossed");
  const DirectedGraph graph_a = MakeGraph(180, 13);
  const DirectedGraph graph_b = MakeGraph(180, 14);
  ASSERT_TRUE(SaveShardedSnapshot(graph_a, "a", WeightScheme::kWeightedCascade,
                                  2, dir)
                  .ok());
  ASSERT_TRUE(SaveShardedSnapshot(graph_b, "b", WeightScheme::kWeightedCascade,
                                  2, dir)
                  .ok());
  // Swap b's shard 0 file under a's name: the per-shard digest check must
  // refuse the set even though the file itself is a valid ASMS snapshot.
  const store::SnapshotStore store(dir);
  const std::string a0 = store.PathFor(ShardSnapshotName("a", 0, 2));
  const std::string b0 = store.PathFor(ShardSnapshotName("b", 0, 2));
  std::filesystem::copy_file(b0, a0,
                             std::filesystem::copy_options::overwrite_existing);
  const auto loaded = LoadShardedSnapshot(dir, "a");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// --- Sharded serving --------------------------------------------------------

std::vector<SolveRequest> ServingRequests(const std::string& graph) {
  std::vector<SolveRequest> requests;
  const AlgorithmId algorithms[] = {AlgorithmId::kAsti, AlgorithmId::kAsti4,
                                    AlgorithmId::kAteuc};
  for (int i = 0; i < 3; ++i) {
    SolveRequest request;
    request.graph = graph;
    request.algorithm = algorithms[i];
    request.eta = 30;
    request.realizations = 2;
    request.seed = 900 + i;
    request.keep_traces = true;
    requests.push_back(request);
  }
  return requests;
}

// The tentpole contract: sharded serving is bit-identical to the
// unsharded path at every shard count, for each pool size.
TEST(ShardServingTest, BitIdenticalAcrossShardAndPoolCounts) {
  const DirectedGraph graph = MakeGraph(260, 15);
  const auto snapshot = std::make_shared<const DirectedGraph>(graph);
  const std::vector<SolveRequest> requests = ServingRequests("g");

  for (size_t pool : {size_t{1}, size_t{4}}) {
    // Unsharded reference at this pool size.
    std::vector<std::string> reference;
    {
      GraphCatalog catalog;
      ASSERT_TRUE(catalog.Register("g", snapshot).ok());
      SeedMinEngine::ServingOptions options;
      options.num_threads = pool;
      SeedMinEngine engine(catalog, options);
      for (const SolveRequest& request : requests) {
        const auto solved = engine.Solve(request);
        ASSERT_TRUE(solved.ok()) << solved.status().ToString();
        reference.push_back(Fingerprint(*solved));
      }
    }

    for (uint32_t shards : {1u, 2u, 4u}) {
      GraphCatalog catalog;
      auto topology = MakeShardTopology(*snapshot, shards);
      ASSERT_TRUE(topology.ok()) << topology.status().ToString();
      ASSERT_TRUE(catalog
                      .Register("g", snapshot, WeightScheme::kWeightedCascade,
                                /*warm=*/nullptr, std::move(topology).value())
                      .ok());
      SeedMinEngine::ServingOptions options;
      options.num_threads = pool;
      SeedMinEngine engine(catalog, options);
      for (size_t i = 0; i < requests.size(); ++i) {
        const auto solved = engine.Solve(requests[i]);
        ASSERT_TRUE(solved.ok()) << solved.status().ToString();
        EXPECT_EQ(Fingerprint(*solved), reference[i])
            << "shards=" << shards << " pool=" << pool << " request=" << i;
      }
    }
  }
}

// ShardRuntime distributes work: with >= 2 shards every shard generates a
// nonzero number of sets for a real request stream.
TEST(ShardServingTest, EveryShardGeneratesSets) {
  GraphCatalog catalog;
  const auto snapshot =
      std::make_shared<const DirectedGraph>(MakeGraph(260, 16));
  auto topology = MakeShardTopology(*snapshot, 3);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(catalog
                  .Register("g", snapshot, WeightScheme::kWeightedCascade,
                            nullptr, std::move(topology).value())
                  .ok());
  SeedMinEngine::ServingOptions options;
  options.num_threads = 2;
  SeedMinEngine engine(catalog, options);
  for (const SolveRequest& request : ServingRequests("g")) {
    const auto solved = engine.Solve(request);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  }
  const MetricsSnapshot snapshot_metrics = engine.metrics_snapshot();
  std::vector<uint64_t> per_shard(3, 0);
  for (const CounterSample& counter : snapshot_metrics.counters) {
    if (counter.name != "asti_shard_rr_sets_total") continue;
    for (const auto& [key, value] : counter.labels) {
      if (key == "shard") per_shard[std::stoul(value)] += counter.value;
    }
  }
  for (uint32_t k = 0; k < 3; ++k) {
    EXPECT_GT(per_shard[k], 0u) << "shard " << k << " generated no sets";
  }
}

// Swap of a sharded entry mid-stream: requests admitted before the swap
// complete bit-identically on their pinned sharded epoch; requests issued
// after run on the new epoch (itself sharded differently).
TEST(ShardServingTest, SwapOfShardedGraphMidStreamPinsOldEpoch) {
  GraphCatalog catalog;
  const auto snapshot =
      std::make_shared<const DirectedGraph>(MakeGraph(240, 17));
  auto topology = MakeShardTopology(*snapshot, 2);
  ASSERT_TRUE(topology.ok());
  ASSERT_TRUE(catalog
                  .Register("g", snapshot, WeightScheme::kWeightedCascade,
                            nullptr, std::move(topology).value())
                  .ok());

  SolveRequest request;
  request.graph = "g";
  request.eta = 28;
  request.realizations = 2;
  request.seed = 41;
  request.keep_traces = true;

  std::string reference;
  {
    SeedMinEngine engine(catalog, SeedMinEngine::ServingOptions{});
    const auto solo = engine.Solve(request);
    ASSERT_TRUE(solo.ok());
    ASSERT_EQ(solo->graph_epoch, 1u);
    reference = Fingerprint(*solo);
  }

  SeedMinEngine::ServingOptions options;
  options.num_drivers = 2;
  options.num_threads = 2;
  SeedMinEngine engine(catalog, options);
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(engine.SubmitAsync(request));

  // Swap to a different graph with a different shard count mid-stream.
  const auto replacement =
      std::make_shared<const DirectedGraph>(MakeGraph(300, 18));
  auto new_topology = MakeShardTopology(*replacement, 4);
  ASSERT_TRUE(new_topology.ok());
  ASSERT_TRUE(catalog
                  .Swap("g", replacement, WeightScheme::kWeightedCascade,
                        nullptr, std::move(new_topology).value())
                  .ok());

  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->graph_epoch, 1u);
    EXPECT_EQ(Fingerprint(*result), reference);
  }
  // A fresh request serves from the new sharded epoch, bit-identical to
  // its own unsharded reference.
  const auto fresh = engine.Solve(request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->graph_epoch, 2u);
  std::string unsharded_epoch2;
  {
    GraphCatalog solo_catalog;
    ASSERT_TRUE(solo_catalog.Register("g", replacement).ok());
    // Same (name, epoch) identity for the fingerprint comparison.
    ASSERT_TRUE(
        solo_catalog.Swap("g", replacement, WeightScheme::kWeightedCascade).ok());
    SeedMinEngine solo_engine(solo_catalog, SeedMinEngine::ServingOptions{});
    const auto solo = solo_engine.Solve(request);
    ASSERT_TRUE(solo.ok());
    unsharded_epoch2 = Fingerprint(*solo);
  }
  EXPECT_EQ(Fingerprint(*fresh), unsharded_epoch2);
}

}  // namespace
}  // namespace asti
