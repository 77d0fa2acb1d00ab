// Tests for the SeedMinEngine façade (src/api/): boundary validation
// (Status::InvalidArgument instead of process aborts), per-graph routing
// against the GraphCatalog (Status::NotFound for unknown names), the
// algorithm registry, and the serving determinism contract — a
// SolveResult is a pure function of (graph snapshot, request),
// bit-identical whether the request runs solo, in a concurrent
// SolveBatch, on a different engine instance, interleaved with requests
// against a *different* catalog graph, or across a hot-swap of an
// unrelated graph, at every pool size.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "api/snapshot_serving.h"
#include "benchutil/experiment.h"
#include "graph/generators.h"
#include "store/snapshot_writer.h"

namespace asti {
namespace {

// Order-sensitive serialization of every deterministic field a client can
// observe, down to the per-round records; wall-clock timings (the one
// legitimately run-dependent part of a SolveResult) are excluded, and the
// graph identity fields are asserted separately where they matter.
std::string Fingerprint(const SolveResult& result) {
  std::ostringstream out;
  out << result.algorithm_name << '|';
  for (double spread : result.spreads) out << spread << ',';
  out << '|';
  for (size_t count : result.seed_counts) out << count << ',';
  out << '|';
  for (const AdaptiveRunTrace& trace : result.traces) {
    for (NodeId seed : trace.seeds) out << seed << ' ';
    out << '/' << trace.total_activated << '/' << trace.total_samples;
    for (const RoundRecord& round : trace.rounds) {
      out << '[' << round.round << ':';
      for (NodeId seed : round.seeds) out << seed << ' ';
      out << round.shortfall_before << '/' << round.newly_activated << '/'
          << round.truncated_gain << '/' << round.estimated_gain << '/'
          << round.num_samples << ']';
    }
    out << ';';
  }
  out << '|' << result.aggregate.mean_seeds << '|' << result.aggregate.mean_spread
      << '|' << result.always_reached;
  return out.str();
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng alpha_rng(301);
    auto alpha = BuildWeightedGraph(MakeBarabasiAlbert(220, 2, alpha_rng),
                                    WeightScheme::kWeightedCascade);
    ASSERT_TRUE(alpha.ok());
    alpha_nodes_ = alpha->NumNodes();
    ASSERT_TRUE(catalog_.Register("alpha", std::move(alpha).value()).ok());

    // A second, structurally different tenant for the multi-graph pins.
    Rng beta_rng(302);
    auto beta = BuildWeightedGraph(MakeBarabasiAlbert(180, 3, beta_rng),
                                   WeightScheme::kWeightedCascade);
    ASSERT_TRUE(beta.ok());
    ASSERT_TRUE(catalog_.Register("beta", std::move(beta).value()).ok());
  }

  // A mixed-algorithm request batch covering adaptive, batched, heuristic
  // and both non-adaptive paths, each with its own seed, all on `graph`.
  std::vector<SolveRequest> MixedRequests(const std::string& graph) const {
    std::vector<SolveRequest> requests;
    auto add = [&requests, &graph](AlgorithmId algorithm, uint64_t seed) {
      SolveRequest request;
      request.graph = graph;
      request.algorithm = algorithm;
      request.eta = 25;
      request.realizations = 2;
      request.seed = seed;
      request.keep_traces = true;
      requests.push_back(request);
    };
    add(AlgorithmId::kAsti, 11);
    add(AlgorithmId::kAsti2, 12);
    add(AlgorithmId::kDegree, 13);
    add(AlgorithmId::kAteuc, 14);
    add(AlgorithmId::kBisection, 15);
    add(AlgorithmId::kAsti, 16);
    requests.back().batch_size = 3;  // non-canonical TRIM-B batch
    return requests;
  }

  SolveRequest AlphaRequest() const {
    SolveRequest request;
    request.graph = "alpha";
    request.eta = 25;
    request.realizations = 2;
    request.seed = 5;
    request.keep_traces = true;
    return request;
  }

  GraphCatalog catalog_;
  NodeId alpha_nodes_ = 0;
};

// --- Validation and routing at the API boundary ----------------------------

TEST_F(EngineTest, RejectsEtaZero) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.eta = 0;
  const auto result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, RejectsEtaAboveN) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.eta = alpha_nodes_ + 1;
  const auto result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, RejectsEpsilonAtOrBelowZero) {
  SeedMinEngine engine(catalog_);
  for (double epsilon : {0.0, -0.5}) {
    SolveRequest request = AlphaRequest();
    request.eta = 10;
    request.epsilon = epsilon;
    const auto result = engine.Solve(request);
    ASSERT_FALSE(result.ok()) << "epsilon=" << epsilon;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(EngineTest, RejectsEpsilonAtOrAboveOne) {
  SeedMinEngine engine(catalog_);
  for (double epsilon : {1.0, 2.5}) {
    SolveRequest request = AlphaRequest();
    request.eta = 10;
    request.epsilon = epsilon;
    const auto result = engine.Solve(request);
    ASSERT_FALSE(result.ok()) << "epsilon=" << epsilon;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(EngineTest, RejectsZeroRealizations) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.eta = 10;
  request.realizations = 0;
  const auto result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, RejectsUnknownAlgorithmId) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.eta = 10;
  request.algorithm = static_cast<AlgorithmId>(99);
  const auto result = engine.Solve(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, RejectsBatchSizeOffPlainAsti) {
  SeedMinEngine engine(catalog_);
  for (AlgorithmId algorithm : {AlgorithmId::kAsti4, AlgorithmId::kAdaptIm,
                                AlgorithmId::kDegree, AlgorithmId::kAteuc,
                                AlgorithmId::kBisection}) {
    SolveRequest request = AlphaRequest();
    request.eta = 10;
    request.algorithm = algorithm;
    request.batch_size = 4;
    const auto result = engine.Solve(request);
    ASSERT_FALSE(result.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// The legacy single-graph binding is gone: requests that don't name a
// catalog graph are invalid, and unknown names answer NotFound, on both
// the sync and async paths (without consuming admission capacity).
TEST_F(EngineTest, EmptyGraphNameIsInvalidArgument) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.graph.clear();
  const auto via_solve = engine.Solve(request);
  ASSERT_FALSE(via_solve.ok());
  EXPECT_EQ(via_solve.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Validate(request).code(), StatusCode::kInvalidArgument);

  auto future = engine.SubmitAsync(request);
  const auto via_async = future.get();
  ASSERT_FALSE(via_async.ok());
  EXPECT_EQ(via_async.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.admission_stats().queue.accepted, 0u);
}

TEST_F(EngineTest, UnknownGraphNameIsNotFound) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.graph = "gamma";
  const auto via_solve = engine.Solve(request);
  ASSERT_FALSE(via_solve.ok());
  EXPECT_EQ(via_solve.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Validate(request).code(), StatusCode::kNotFound);

  auto future = engine.SubmitAsync(request);
  const auto via_async = future.get();
  ASSERT_FALSE(via_async.ok());
  EXPECT_EQ(via_async.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.admission_stats().queue.accepted, 0u);
}

// A sampler-cache byte budget small enough to hold only one entry forces
// LRU eviction when requests alternate between two cache keys, surfaces
// the drops through asti_sampler_cache_evictions_total, and — the
// load-bearing part — never changes results: a re-created entry
// regenerates bit-identical sets because streams derive from the key.
TEST_F(EngineTest, CacheByteBudgetEvictsWithoutChangingResults) {
  SolveRequest ic = AlphaRequest();
  SolveRequest lt = AlphaRequest();
  lt.model = DiffusionModel::kLinearThreshold;

  SeedMinEngine::ServingOptions unlimited;
  unlimited.num_threads = 1;
  SeedMinEngine baseline(catalog_, unlimited);
  const auto ic_expected = baseline.Solve(ic);
  const auto lt_expected = baseline.Solve(lt);
  ASSERT_TRUE(ic_expected.ok()) << ic_expected.status().ToString();
  ASSERT_TRUE(lt_expected.ok()) << lt_expected.status().ToString();

  SeedMinEngine::ServingOptions tight;
  tight.num_threads = 1;
  tight.cache_byte_budget = 1;  // nothing fits beside the entry just used
  SeedMinEngine engine(catalog_, tight);
  for (int round = 0; round < 3; ++round) {
    const auto ic_result = engine.Solve(ic);
    const auto lt_result = engine.Solve(lt);
    ASSERT_TRUE(ic_result.ok()) << ic_result.status().ToString();
    ASSERT_TRUE(lt_result.ok()) << lt_result.status().ToString();
    EXPECT_EQ(ic_result->seed_counts, ic_expected->seed_counts);
    EXPECT_EQ(ic_result->spreads, ic_expected->spreads);
    EXPECT_EQ(lt_result->seed_counts, lt_expected->seed_counts);
    EXPECT_EQ(lt_result->spreads, lt_expected->spreads);
  }

  uint64_t evictions = 0;
  for (const auto& counter : engine.metrics_snapshot().counters) {
    if (counter.name == "asti_sampler_cache_evictions_total") {
      evictions += counter.value;
    }
  }
  EXPECT_GT(evictions, 0u);
}

TEST_F(EngineTest, AsyncInvalidRequestResolvesToStatusNotCrash) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = AlphaRequest();
  request.eta = 0;
  auto future = engine.SubmitAsync(request);
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Registry --------------------------------------------------------------

TEST(AlgorithmRegistryTest, ListCoversEveryIdWithNames) {
  const auto& catalog = AlgorithmRegistry::List();
  EXPECT_EQ(catalog.size(), 9u);
  for (const AlgorithmInfo& info : catalog) {
    EXPECT_STREQ(info.name, AlgorithmRegistry::Name(info.id));
    EXPECT_NE(std::string(info.paper_name), "");
  }
}

TEST(AlgorithmRegistryTest, ParsesCanonicalAndBatchedNames) {
  auto asti = AlgorithmRegistry::Parse("ASTI");
  ASSERT_TRUE(asti.ok());
  EXPECT_EQ(asti->id, AlgorithmId::kAsti);
  EXPECT_EQ(asti->batch_size, 0u);

  auto asti4 = AlgorithmRegistry::Parse("ASTI-4");
  ASSERT_TRUE(asti4.ok());
  EXPECT_EQ(asti4->id, AlgorithmId::kAsti4);

  auto asti16 = AlgorithmRegistry::Parse("ASTI-16");
  ASSERT_TRUE(asti16.ok());
  EXPECT_EQ(asti16->id, AlgorithmId::kAsti);
  EXPECT_EQ(asti16->batch_size, 16u);

  EXPECT_TRUE(AlgorithmRegistry::Parse("AdaptIM").ok());
  EXPECT_TRUE(AlgorithmRegistry::Parse("Degree").ok());
  EXPECT_FALSE(AlgorithmRegistry::Parse("ASTI-0").ok());
  EXPECT_FALSE(AlgorithmRegistry::Parse("ASTI-4x").ok());   // trailing garbage
  EXPECT_FALSE(AlgorithmRegistry::Parse("ASTI-1.5").ok());  // not an integer
  EXPECT_FALSE(AlgorithmRegistry::Parse("ASTI-").ok());
  EXPECT_FALSE(AlgorithmRegistry::Parse("nope").ok());
}

TEST_F(EngineTest, RegistryRefusesNonAdaptiveSelectors) {
  const auto alpha = catalog_.Get("alpha");
  ASSERT_TRUE(alpha.ok());
  AlgorithmContext ctx;
  ctx.graph = &alpha->graph();
  for (AlgorithmId algorithm : {AlgorithmId::kAteuc, AlgorithmId::kBisection}) {
    auto selector = AlgorithmRegistry::Make(algorithm, ctx);
    ASSERT_FALSE(selector.ok());
    EXPECT_EQ(selector.status().code(), StatusCode::kInvalidArgument);
  }
  auto trim = AlgorithmRegistry::Make(AlgorithmId::kAsti, ctx);
  ASSERT_TRUE(trim.ok());
  EXPECT_STREQ((*trim)->Name(), "ASTI");
}

// --- Serving determinism ---------------------------------------------------

TEST_F(EngineTest, ResultRecordsGraphIdentity) {
  SeedMinEngine engine(catalog_);
  const auto result = engine.Solve(AlphaRequest());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->graph_name, "alpha");
  EXPECT_EQ(result->graph_epoch, 1u);
}

TEST_F(EngineTest, SolveMatchesLegacyRunCell) {
  SeedMinEngine engine(catalog_);
  const auto via_engine = engine.Solve(AlphaRequest());
  ASSERT_TRUE(via_engine.ok());

  CellConfig config;
  config.algorithm = AlgorithmId::kAsti;
  config.eta = 25;
  config.realizations = 2;
  config.seed = 5;
  config.keep_traces = true;
  const auto alpha = catalog_.Get("alpha");
  ASSERT_TRUE(alpha.ok());
  const CellResult via_runcell = RunCell(alpha->graph(), config);
  EXPECT_EQ(Fingerprint(*via_engine), Fingerprint(via_runcell));
}

// The headline contract: SubmitAsync-ing N mixed-algorithm requests
// concurrently yields byte-identical SolveResults to solo sequential
// Solve calls, at every pool size.
TEST_F(EngineTest, ConcurrentBatchMatchesSoloAtEveryPoolSize) {
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::string> solo;
    {
      SeedMinEngine engine(catalog_, {threads});
      for (const SolveRequest& request : requests) {
        const auto result = engine.Solve(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        solo.push_back(Fingerprint(*result));
      }
    }
    SeedMinEngine engine(catalog_, {threads});
    const auto batch = engine.SolveBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
      EXPECT_EQ(Fingerprint(*batch[i]), solo[i])
          << "threads=" << threads << " request=" << i << " ("
          << AlgorithmName(requests[i].algorithm) << ")";
    }
  }
}

// Two engines sharing no state but the same catalog and request seeds
// agree, and a request interleaved with other clients' async work equals
// its solo run.
TEST_F(EngineTest, IndependentEnginesAndInterleavedClientsAgree) {
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  SeedMinEngine engine_a(catalog_, {2});
  SeedMinEngine engine_b(catalog_, {2});

  // Client 1 submits everything async on A; client 2 solves solo on B.
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (const SolveRequest& request : requests) {
    futures.push_back(engine_a.SubmitAsync(request));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto from_b = engine_b.Solve(requests[i]);
    ASSERT_TRUE(from_b.ok());
    const auto from_a = futures[i].get();
    ASSERT_TRUE(from_a.ok());
    EXPECT_EQ(Fingerprint(*from_a), Fingerprint(*from_b)) << "request " << i;
  }
}

// Multi-tenant pin: a request against one graph is bit-identical whether
// it runs solo or interleaved with a stream of requests against a
// *different* catalog graph on the same engine (same pool, same queue),
// at every pool size.
TEST_F(EngineTest, InterleavingAnotherGraphLeavesResultsIdentical) {
  const std::vector<SolveRequest> alpha_requests = MixedRequests("alpha");
  const std::vector<SolveRequest> beta_requests = MixedRequests("beta");
  for (size_t threads : {1u, 2u, 4u}) {
    std::vector<std::string> solo;
    {
      SeedMinEngine engine(catalog_, {threads});
      for (const SolveRequest& request : alpha_requests) {
        const auto result = engine.Solve(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        solo.push_back(Fingerprint(*result));
      }
    }

    SeedMinEngine::ServingOptions options;
    options.num_threads = threads;
    options.num_drivers = 3;
    SeedMinEngine engine(catalog_, options);
    // Interleave the two tenants' submissions on one engine.
    std::vector<std::future<StatusOr<SolveResult>>> alpha_futures;
    std::vector<std::future<StatusOr<SolveResult>>> beta_futures;
    for (size_t i = 0; i < alpha_requests.size(); ++i) {
      beta_futures.push_back(engine.SubmitAsync(beta_requests[i]));
      alpha_futures.push_back(engine.SubmitAsync(alpha_requests[i]));
    }
    for (size_t i = 0; i < alpha_futures.size(); ++i) {
      const auto mixed = alpha_futures[i].get();
      ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
      EXPECT_EQ(mixed->graph_name, "alpha");
      EXPECT_EQ(Fingerprint(*mixed), solo[i])
          << "threads=" << threads << " request=" << i;
      const auto beta = beta_futures[i].get();
      ASSERT_TRUE(beta.ok()) << beta.status().ToString();
      EXPECT_EQ(beta->graph_name, "beta");
    }

    // Both tenants show up in the per-graph serving stats, fully drained,
    // and each one's queue waits were recorded under its own graph label.
    const SeedMinEngine::EngineStats stats = engine.admission_stats();
    ASSERT_EQ(stats.graphs.size(), 2u);
    EXPECT_EQ(stats.graphs[0].name, "alpha");
    EXPECT_EQ(stats.graphs[1].name, "beta");
    const MetricsSnapshot snapshot = engine.metrics_snapshot();
    EXPECT_EQ(snapshot.MergedHistogram("asti_queue_wait_seconds", "graph", "alpha").Count(),
              alpha_requests.size());
    EXPECT_EQ(snapshot.MergedHistogram("asti_queue_wait_seconds", "graph", "beta").Count(),
              beta_requests.size());
  }
}

// Hot-swap pin: requests against one graph are bit-identical across a
// concurrent Swap of an *unrelated* graph, and requests admitted against
// the swapped graph BEFORE the swap stay pinned to their old-epoch
// snapshot even when they execute after it.
TEST_F(EngineTest, HotSwapOfUnrelatedGraphLeavesResultsIdentical) {
  const std::vector<SolveRequest> alpha_requests = MixedRequests("alpha");
  std::vector<std::string> solo;
  {
    SeedMinEngine engine(catalog_, {2});
    for (const SolveRequest& request : alpha_requests) {
      const auto result = engine.Solve(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      solo.push_back(Fingerprint(*result));
    }
  }

  SeedMinEngine::ServingOptions options;
  options.num_threads = 2;
  options.num_drivers = 2;
  SeedMinEngine engine(catalog_, options);

  // Admit one beta request before the swap: it must execute on epoch 1.
  SolveRequest beta_request = MixedRequests("beta").front();
  auto pinned_beta = engine.SubmitAsync(beta_request);
  std::string beta_solo;
  {
    SeedMinEngine reference(catalog_, {2});
    const auto result = reference.Solve(beta_request);
    ASSERT_TRUE(result.ok());
    beta_solo = Fingerprint(*result);
  }

  // Swap beta mid-workload (alpha untouched).
  Rng swap_rng(909);
  auto replacement = BuildWeightedGraph(MakeBarabasiAlbert(200, 2, swap_rng),
                                        WeightScheme::kWeightedCascade);
  ASSERT_TRUE(replacement.ok());
  const auto swapped = catalog_.Swap("beta", std::move(replacement).value());
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped->epoch(), 2u);

  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (const SolveRequest& request : alpha_requests) {
    futures.push_back(engine.SubmitAsync(request));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->graph_epoch, 1u);  // alpha was never swapped
    EXPECT_EQ(Fingerprint(*result), solo[i]) << "request " << i;
  }

  // The pre-swap beta request executed on its pinned epoch-1 snapshot.
  const auto pinned = pinned_beta.get();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->graph_epoch, 1u);
  EXPECT_EQ(Fingerprint(*pinned), beta_solo);

  // New beta requests route to the new epoch.
  const auto fresh = engine.Solve(beta_request);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->graph_epoch, 2u);
}

// Retire + re-Register of the same name restarts epochs at 1; the
// engine's state cache must key on snapshot identity, not epoch alone,
// or it would keep serving the retired graph.
TEST_F(EngineTest, ReRegisteredNameServesTheNewSnapshot) {
  SeedMinEngine engine(catalog_, {2});
  ASSERT_TRUE(engine.Solve(AlphaRequest()).ok());  // caches (alpha, epoch 1)

  ASSERT_TRUE(catalog_.Retire("alpha").ok());
  Rng bigger_rng(777);
  auto bigger = BuildWeightedGraph(MakeBarabasiAlbert(500, 2, bigger_rng),
                                   WeightScheme::kWeightedCascade);
  ASSERT_TRUE(bigger.ok());
  const auto re_registered = catalog_.Register("alpha", std::move(bigger).value());
  ASSERT_TRUE(re_registered.ok());
  EXPECT_EQ(re_registered->epoch(), 1u);  // same (name, epoch), new snapshot

  // eta=300 is valid on the 500-node replacement but not on the retired
  // 220-node graph: a stale cache would answer InvalidArgument.
  SolveRequest request = AlphaRequest();
  request.eta = 300;
  const auto result = engine.Solve(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->graph_name, "alpha");
  EXPECT_EQ(result->graph_epoch, 1u);
}

// Per-graph serving counters are per NAME, not per epoch: a hot-swap must
// neither reset the completed total nor drop the row, and the row's epoch
// advances to the newest resolved snapshot.
TEST_F(EngineTest, PerGraphCountersSurviveHotSwap) {
  SeedMinEngine engine(catalog_, {2});
  ASSERT_TRUE(engine.Solve(AlphaRequest()).ok());
  ASSERT_TRUE(engine.Solve(AlphaRequest()).ok());

  Rng swap_rng(555);
  auto replacement = BuildWeightedGraph(MakeBarabasiAlbert(240, 2, swap_rng),
                                        WeightScheme::kWeightedCascade);
  ASSERT_TRUE(replacement.ok());
  ASSERT_TRUE(catalog_.Swap("alpha", std::move(replacement).value()).ok());
  const auto fresh = engine.Solve(AlphaRequest());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->graph_epoch, 2u);

  const SeedMinEngine::EngineStats stats = engine.admission_stats();
  // Only graphs with live serving state appear; beta was never served here.
  ASSERT_EQ(stats.graphs.size(), 1u);
  EXPECT_EQ(stats.graphs[0].name, "alpha");
  EXPECT_EQ(stats.graphs[0].epoch, 2u);        // newest resolved epoch
  EXPECT_EQ(stats.graphs[0].completed, 3u);    // totals carried across the swap
  EXPECT_EQ(stats.graphs[0].inflight, 0u);
}

// Admission-rework pin: requests served through the bounded queue and the
// fixed driver pool — strictly serialized (one driver) or racing (three
// drivers) over a deliberately tiny queue, so blocking admission really
// engages — stay bit-identical to solo Solve runs at every pool size. The
// same burst through SubmitAsync, which rejects when the queue is full, may
// be partly refused; every request it admits still equals its solo run,
// and the queue counts exactly the refusals clients saw.
TEST_F(EngineTest, QueuedAndRacingDriversMatchSoloAtEveryPoolSize) {
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::string> solo;
    {
      SeedMinEngine engine(catalog_, {threads});
      for (const SolveRequest& request : requests) {
        const auto result = engine.Solve(request);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        solo.push_back(Fingerprint(*result));
      }
    }
    for (size_t drivers : {1u, 3u}) {
      SeedMinEngine::ServingOptions options;
      options.num_threads = threads;
      options.num_drivers = drivers;
      options.max_queue_depth = 2;  // capacity 3 or 5 < 6 requests
      SeedMinEngine engine(catalog_, options);
      const auto batch = engine.SolveBatch(requests);
      ASSERT_EQ(batch.size(), requests.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
        EXPECT_EQ(Fingerprint(*batch[i]), solo[i])
            << "threads=" << threads << " drivers=" << drivers << " request=" << i;
      }
      const SeedMinEngine::EngineStats stats = engine.admission_stats();
      EXPECT_EQ(stats.queue.accepted, requests.size());
      EXPECT_EQ(stats.queue.rejected, 0u);  // SolveBatch throttles, never rejects
      ASSERT_EQ(stats.graphs.size(), 1u);   // one tenant served
      EXPECT_EQ(stats.graphs[0].name, "alpha");
      EXPECT_EQ(stats.graphs[0].epoch, 1u);

      SeedMinEngine rejecting(catalog_, options);
      std::vector<std::future<StatusOr<SolveResult>>> futures;
      for (const SolveRequest& request : requests) {
        futures.push_back(rejecting.SubmitAsync(request));
      }
      size_t refused = 0;
      for (size_t i = 0; i < futures.size(); ++i) {
        const auto result = futures[i].get();
        if (!result.ok()) {
          EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
              << "threads=" << threads << " drivers=" << drivers << " request=" << i;
          ++refused;
          continue;
        }
        EXPECT_EQ(Fingerprint(*result), solo[i])
            << "threads=" << threads << " drivers=" << drivers << " request=" << i;
      }
      const SeedMinEngine::EngineStats rejecting_stats = rejecting.admission_stats();
      EXPECT_EQ(rejecting_stats.queue.rejected, refused);
      EXPECT_EQ(rejecting_stats.queue.accepted + refused, requests.size());
    }
  }
}

// --- Observability ----------------------------------------------------------

TEST_F(EngineTest, SolveResultCarriesAPopulatedProfile) {
  SeedMinEngine engine(catalog_, {2});
  const auto result = engine.Solve(AlphaRequest());  // ASTI: sampling-based
  ASSERT_TRUE(result.ok());
  const RequestProfile& profile = result->profile;
  EXPECT_GT(profile.total_seconds, 0.0);
  EXPECT_GT(profile.sampling_seconds, 0.0);
  EXPECT_GT(profile.sets_generated, 0u);
  EXPECT_GT(profile.collection_bytes, 0u);
  EXPECT_EQ(profile.queue_wait_seconds, 0.0);  // synchronous path never queues
  // Phases are disjoint pieces of the execution time.
  EXPECT_LE(profile.sampling_seconds + profile.coverage_seconds +
                profile.certify_seconds,
            profile.total_seconds);

  // The degree heuristic never samples: volume stays zero, total still set.
  SolveRequest degree = AlphaRequest();
  degree.algorithm = AlgorithmId::kDegree;
  const auto heuristic = engine.Solve(degree);
  ASSERT_TRUE(heuristic.ok());
  EXPECT_EQ(heuristic->profile.sets_generated, 0u);
  EXPECT_GT(heuristic->profile.total_seconds, 0.0);
}

TEST_F(EngineTest, MetricsSnapshotAggregatesServedRequests) {
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  SeedMinEngine engine(catalog_, {2});
  for (const SolveRequest& request : requests) {
    ASSERT_TRUE(engine.Solve(request).ok());
  }
  auto failing = AlphaRequest();
  failing.eta = 0;  // rejected before execution: must not count
  ASSERT_FALSE(engine.Solve(failing).ok());

  const MetricsSnapshot snapshot = engine.metrics_snapshot();
  // Every served request landed in the latency histogram, once, and its
  // quantiles are populated and ordered.
  const HistogramData latency = snapshot.MergedHistogram("asti_request_latency_seconds");
  EXPECT_EQ(latency.Count(), requests.size());
  EXPECT_GT(latency.Quantile(0.50), 0u);
  EXPECT_LE(latency.Quantile(0.50), latency.Quantile(0.99));
  EXPECT_LE(latency.Quantile(0.99), latency.Quantile(0.999));
  EXPECT_EQ(snapshot.MergedHistogram("asti_queue_wait_seconds").Count(),
            requests.size());
  // Requests-total with outcome=OK sums to the served count across
  // (graph, algorithm) label sets.
  uint64_t ok_total = 0;
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name != "asti_requests_total") continue;
    for (const auto& [key, value] : counter.labels) {
      if (key == "outcome") {
        EXPECT_EQ(value, "OK");
      }
      if (key == "graph") {
        EXPECT_EQ(value, "alpha");
      }
    }
    ok_total += counter.value;
  }
  EXPECT_EQ(ok_total, requests.size());
  // Sampling-based requests recorded RR-set volume and phase time.
  EXPECT_GT(snapshot.MergedHistogram("asti_phase_seconds").Count(), 0u);
  // Synthesized admission/graph series ride along, and the snapshot is
  // sorted so exporters emit families contiguously.
  EXPECT_NE(snapshot.FindCounter("asti_admission_total",
                                 {{"outcome", "completed"}}),
            nullptr);
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LE(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
  // Everything drained: the inflight gauge reads zero.
  bool saw_inflight = false;
  for (const GaugeSample& gauge : snapshot.gauges) {
    if (gauge.name == "asti_admission_inflight") {
      saw_inflight = true;
      EXPECT_EQ(gauge.value, 0);
    }
  }
  EXPECT_TRUE(saw_inflight);
}

// Async requests observe a real (non-negative) queue wait, and queue wait
// is part of total latency.
TEST_F(EngineTest, AsyncRequestsRecordQueueWait) {
  SeedMinEngine::ServingOptions options;
  options.num_threads = 1;
  options.num_drivers = 1;  // serialize: later requests must wait
  SeedMinEngine engine(catalog_, options);
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  for (const SolveRequest& request : requests) {
    futures.push_back(engine.SubmitAsync(request));
  }
  double max_wait = 0.0;
  for (auto& future : futures) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GE(result->profile.queue_wait_seconds, 0.0);
    EXPECT_GE(result->profile.total_seconds, result->profile.queue_wait_seconds);
    max_wait = std::max(max_wait, result->profile.queue_wait_seconds);
  }
  // With one driver, at least the last request genuinely queued.
  EXPECT_GT(max_wait, 0.0);
}

// --- Sampler cache ----------------------------------------------------------

// The cache's determinism contract: a request is bit-identical whether its
// full-residual collections are freshly sampled (cold cache: a fresh
// engine per request) or served entirely from another request's sealed
// prefixes (warm cache) — at every pool size, because cache streams derive
// from the cache key, not the request seed.
TEST_F(EngineTest, ColdAndWarmCacheAgreeAtEveryPoolSize) {
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Solo / cold: a fresh engine per request, nothing shared.
    std::vector<std::string> solo;
    for (const SolveRequest& request : requests) {
      SeedMinEngine engine(catalog_, {threads});
      const auto result = engine.Solve(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      solo.push_back(Fingerprint(*result));
    }
    // Warm: one engine, two sequential passes; the second pass reads
    // sealed prefixes another request published.
    SeedMinEngine warm(catalog_, {threads});
    for (const SolveRequest& request : requests) {
      ASSERT_TRUE(warm.Solve(request).ok());
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto result = warm.Solve(requests[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), solo[i])
          << "threads=" << threads << " warm request=" << i;
    }
  }
}

// Concurrent extenders: several copies of the mixed workload submitted at
// once race to extend the SAME shared collections (the two TRIM-family
// requests share the round-1 mRR entry, ATEUC and Bisection the RR
// entry). Every copy must still equal the solo cold run, at every pool
// size — reuse never depends on who won the extension race.
TEST_F(EngineTest, RacingCacheExtendersMatchSoloAtEveryPoolSize) {
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Solo cold reference at the same pool size.
    std::vector<std::string> solo;
    for (const SolveRequest& request : requests) {
      SeedMinEngine engine(catalog_, {threads});
      const auto result = engine.Solve(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      solo.push_back(Fingerprint(*result));
    }
    SeedMinEngine::ServingOptions options;
    options.num_threads = threads;
    options.num_drivers = 4;
    SeedMinEngine engine(catalog_, options);
    std::vector<std::future<StatusOr<SolveResult>>> futures;
    constexpr size_t kCopies = 3;
    for (size_t copy = 0; copy < kCopies; ++copy) {
      for (const SolveRequest& request : requests) {
        futures.push_back(engine.SubmitAsync(request));
      }
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      const auto result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), solo[i % requests.size()])
          << "threads=" << threads << " submission=" << i;
    }
  }
}

// Profile satellite: request-owned and shared collection bytes are
// reported separately, and the cache_hit flag with the reused/extended
// counts distinguishes the run that grew the cache from the one that rode
// it.
TEST_F(EngineTest, ProfileSplitsSharedAndOwnedCollectionBytes) {
  SeedMinEngine engine(catalog_, {2});
  const auto cold = engine.Solve(AlphaRequest());
  ASSERT_TRUE(cold.ok());
  // ASTI round 1 reads the shared cache; the cold run had to extend it.
  EXPECT_GT(cold->profile.shared_collection_bytes, 0u);
  EXPECT_GT(cold->profile.sets_extended, 0u);
  EXPECT_FALSE(cold->profile.cache_hit);
  // Rounds >= 2 condition on activations and sample request-owned
  // collections, so both byte families are populated and distinct.
  EXPECT_GT(cold->profile.collection_bytes, 0u);

  const auto warm = engine.Solve(AlphaRequest());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->profile.cache_hit);
  EXPECT_GT(warm->profile.sets_reused, 0u);
  EXPECT_EQ(warm->profile.sets_extended, 0u);
  EXPECT_EQ(warm->profile.shared_collection_bytes,
            cold->profile.shared_collection_bytes);

  // A non-sampling heuristic touches neither family.
  SolveRequest degree = AlphaRequest();
  degree.algorithm = AlgorithmId::kDegree;
  const auto heuristic = engine.Solve(degree);
  ASSERT_TRUE(heuristic.ok());
  EXPECT_EQ(heuristic->profile.shared_collection_bytes, 0u);
  EXPECT_EQ(heuristic->profile.sets_reused, 0u);
  EXPECT_FALSE(heuristic->profile.cache_hit);
}

// The engine exports the per-graph sampler-cache families, and the
// per-request reuse counter accumulates across served requests.
TEST_F(EngineTest, SamplerCacheMetricsFamiliesAppear) {
  SeedMinEngine engine(catalog_, {2});
  ASSERT_TRUE(engine.Solve(AlphaRequest()).ok());  // cold: misses/extensions
  ASSERT_TRUE(engine.Solve(AlphaRequest()).ok());  // warm: hits/reuse

  const MetricsSnapshot snapshot = engine.metrics_snapshot();
  const CounterSample* hits =
      snapshot.FindCounter("asti_sampler_cache_hits_total", {{"graph", "alpha"}});
  ASSERT_NE(hits, nullptr);
  EXPECT_GT(hits->value, 0u);
  const CounterSample* misses =
      snapshot.FindCounter("asti_sampler_cache_misses_total", {{"graph", "alpha"}});
  ASSERT_NE(misses, nullptr);
  EXPECT_GT(misses->value, 0u);
  const CounterSample* reused = snapshot.FindCounter(
      "asti_sampler_cache_sets_reused_total", {{"graph", "alpha"}});
  ASSERT_NE(reused, nullptr);
  EXPECT_GT(reused->value, 0u);
  // The warm solve's round 1 was served from the entry's memoized pick,
  // which counts as a cache hit (above) and as a selection hit.
  const CounterSample* selection_hits = snapshot.FindCounter(
      "asti_sampler_cache_selection_hits_total", {{"graph", "alpha"}});
  ASSERT_NE(selection_hits, nullptr);
  EXPECT_GE(selection_hits->value, 1u);
  EXPECT_GE(hits->value, selection_hits->value);
  bool saw_bytes = false;
  for (const GaugeSample& gauge : snapshot.gauges) {
    if (gauge.name == "asti_sampler_cache_bytes") {
      saw_bytes = true;
      EXPECT_GT(gauge.value, 0);
    }
  }
  EXPECT_TRUE(saw_bytes);
  // The per-(graph, algorithm) reuse counter rode along with the request
  // families.
  uint64_t total_reused = 0;
  for (const CounterSample& counter : snapshot.counters) {
    if (counter.name == "asti_rr_sets_reused_total") total_reused += counter.value;
  }
  EXPECT_GT(total_reused, 0u);
}

// Every sampling path derives set i's stream from its index, with or
// without a pool, so every served algorithm answers identically at every
// pool size — including 1, which runs without a pool. The multi-round
// requests matter most: their residual rounds sample request-owned
// collections from the request stream.
TEST_F(EngineTest, EveryPoolSizeIncludingOneAgrees) {
  std::vector<SolveRequest> requests = MixedRequests("alpha");
  SolveRequest adaptim = AlphaRequest();
  adaptim.algorithm = AlgorithmId::kAdaptIm;
  adaptim.seed = 21;
  requests.push_back(adaptim);
  std::vector<std::string> reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SeedMinEngine engine(catalog_, {threads});
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto result = engine.Solve(requests[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (reference.size() < requests.size()) {
        reference.push_back(Fingerprint(*result));
      } else {
        EXPECT_EQ(Fingerprint(*result), reference[i])
            << "threads=" << threads << " request=" << i << " ("
            << AlgorithmName(requests[i].algorithm) << ")";
      }
    }
  }
}

// Answers pinned as values: every identity pin above compares two runs of
// one build, so none would notice both runs moving together. A refactor
// must keep these fingerprints; a change that alters sampler streams on
// purpose re-derives them and says so. At η = 90 every algorithm needs a
// residual round under both models. The IC pins were re-derived once, when
// IC traversal began skipping dead in-edges at uniform nodes (sampler
// contract version 2); the LT pins did not move.
TEST_F(EngineTest, AnswersMatchPinnedFingerprints) {
  struct Pin {
    AlgorithmId algorithm;
    DiffusionModel model;
    const char* fingerprint;
  };
  const Pin pins[] = {
      {AlgorithmId::kAsti, DiffusionModel::kIndependentCascade,
       "ASTI|90,94,|8,6,|0 2 1 3 4 7 15 6 /90/7832[1:0 90/33/33/31.262/832]"
       "[2:2 57/11/11/20.4488/800][3:1 46/13/13/13.0548/1568][4:3 33/10/10/8.90132/1520]"
       "[5:4 23/10/10/7.21875/1472][6:7 13/3/3/5.77155/696][7:15 10/9/9/4.80882/680]"
       "[8:6 1/1/1/1/264];0 2 4 27 9 38 /94/4012[1:0 90/18/18/31.262/832]"
       "[2:2 72/57/57/23.7353/816][3:4 15/1/1/5.9446/704][4:27 14/7/7/5.58807/704]"
       "[5:9 7/4/4/4.14024/656][6:38 3/7/3/2.6/300];|7|92|1"},
      {AlgorithmId::kAsti4, DiffusionModel::kIndependentCascade,
       "ASTI-4|97,97,|12,8,|0 2 3 4 1 21 7 9 27 63 6 8 /97/1722"
       "[1:0 2 3 4 90/68/68/54.5921/760][2:1 21 7 9 22/19/19/16.9256/672]"
       "[3:27 63 6 8 3/10/3/3/290];"
       "0 2 3 4 9 27 15 38 /97/1086[1:0 2 3 4 90/76/76/54.5921/760]"
       "[2:9 27 15 38 14/21/14/12.3252/326];|10|97|1"},
      {AlgorithmId::kAdaptIm, DiffusionModel::kIndependentCascade,
       "AdaptIM|92,90,|8,6,|0 2 1 3 4 15 27 7 /92/31904[1:0 90/33/33/38.0769/1248]"
       "[2:2 57/11/11/23.7595/2432][3:1 46/13/13/13.7133/4800][4:3 33/10/10/10.6629/4800]"
       "[5:4 23/10/10/8.75486/4736][6:15 13/9/9/7.86622/4672][7:27 4/3/3/6.65929/4608]"
       "[8:7 1/3/1/6.3112/4608];0 2 4 9 7 38 /90/22400[1:0 90/18/18/38.0769/1248]"
       "[2:2 72/57/57/26.9716/2464][3:4 15/1/1/7.29345/4672][4:9 14/4/4/7.21233/4672]"
       "[5:7 10/3/3/6.71233/4672][6:38 7/7/7/6.53917/4672];|7|91|1"},
      {AlgorithmId::kAsti, DiffusionModel::kLinearThreshold,
       "ASTI|108,90,|4,4,|0 2 1 22 /108/3936[1:0 90/23/23/32.7764/832]"
       "[2:2 67/24/24/21.9228/816][3:1 43/25/25/12.6148/1568]"
       "[4:22 18/36/18/7.425/720];0 2 1 3 /90/3088[1:0 90/23/23/32.7764/832]"
       "[2:2 67/45/45/21.7586/816][3:1 22/8/8/10.2826/736][4:3 14/14/14/6.7017/704];"
       "|4|99|1"},
      {AlgorithmId::kAsti4, DiffusionModel::kLinearThreshold,
       "ASTI-4|108,124,|4,8,|0 2 1 4 /108/760[1:0 2 1 4 90/108/90/63.1184/760];"
       "0 2 1 4 3 23 7 9 /124/1050[1:0 2 1 4 90/87/87/63.1184/760]"
       "[2:3 23 7 9 3/37/3/3/290];|6|116|1"},
      {AlgorithmId::kAdaptIm, DiffusionModel::kLinearThreshold,
       "AdaptIM|122,99,|5,5,|0 2 1 3 22 /122/15392[1:0 90/23/23/38.2532/1248]"
       "[2:2 67/24/24/27.2634/2464][3:1 43/25/25/15.4979/2400]"
       "[4:3 18/14/14/9.63014/4672][5:22 4/36/4/9.16016/4608];0 2 1 7 4 /99/17728"
       "[1:0 90/23/23/38.2532/1248][2:2 67/45/45/29.1822/2464]"
       "[3:1 22/8/8/12.8378/4736][4:7 14/12/12/9.12329/4672][5:4 2/11/2/9.05208/4608];"
       "|5|110.5|1"},
  };
  for (size_t threads : {1u, 2u}) {
    SeedMinEngine engine(catalog_, {threads});
    for (const Pin& pin : pins) {
      SolveRequest request = AlphaRequest();
      request.algorithm = pin.algorithm;
      request.model = pin.model;
      request.eta = 90;
      const auto result = engine.Solve(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), pin.fingerprint)
          << "threads=" << threads << " " << AlgorithmName(pin.algorithm) << " "
          << DiffusionModelName(pin.model);
    }
  }
}

// --- Snapshot store integration (src/store/) --------------------------------

// A graph served from an mmap'd ASMS snapshot (CSR spans pointing into the
// mapping) must be indistinguishable from the heap-built snapshot it was
// written from: bit-identical results for the whole mixed workload at
// every pool size.
TEST_F(EngineTest, SnapshotBackedGraphMatchesHeapAtEveryPoolSize) {
  const std::string path = testing::TempDir() + "/engine_alpha.asms";
  {
    const auto alpha = catalog_.Get("alpha");
    ASSERT_TRUE(alpha.ok());
    ASSERT_TRUE(store::WriteSnapshot(alpha->graph(), "alpha", alpha->weight_scheme(),
                                     {}, path)
                    .ok());
  }
  GraphCatalog mapped_catalog;
  const auto registered = RegisterSnapshotFile(mapped_catalog, path);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    for (const SolveRequest& request : requests) {
      SeedMinEngine heap_engine(catalog_, {threads});
      SeedMinEngine mapped_engine(mapped_catalog, {threads});
      const auto want = heap_engine.Solve(request);
      const auto got = mapped_engine.Solve(request);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Fingerprint(*got), Fingerprint(*want)) << "threads=" << threads;
      EXPECT_EQ(got->graph_name, "alpha");
    }
  }
  std::filesystem::remove(path);
}

// Warm-starting from persisted sealed prefixes — engine.SaveSnapshot, then
// a process-fresh catalog+engine built from the file alone — must
// reproduce cold-cache results bit-for-bit at every pool size, while the
// adoption counters prove the warm path was actually taken.
TEST_F(EngineTest, WarmStartFromDiskMatchesColdCacheAtEveryPoolSize) {
  const std::string path = testing::TempDir() + "/engine_alpha_warm.asms";
  const std::vector<SolveRequest> requests = MixedRequests("alpha");
  {
    SeedMinEngine seeding(catalog_, {2});
    for (const SolveRequest& request : requests) {
      ASSERT_TRUE(seeding.Solve(request).ok());
    }
    ASSERT_TRUE(seeding.SaveSnapshot("alpha", path).ok());
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Cold reference: a fresh engine (empty cache) per request.
    std::vector<std::string> cold;
    for (const SolveRequest& request : requests) {
      SeedMinEngine engine(catalog_, {threads});
      const auto result = engine.Solve(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      cold.push_back(Fingerprint(*result));
    }
    GraphCatalog warm_catalog;
    ASSERT_TRUE(RegisterSnapshotFile(warm_catalog, path).ok());
    SeedMinEngine warm(warm_catalog, {threads});
    for (size_t i = 0; i < requests.size(); ++i) {
      const auto result = warm.Solve(requests[i]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(*result), cold[i])
          << "threads=" << threads << " request=" << i;
    }
    uint64_t adopted = 0;
    for (const CounterSample& counter : warm.metrics_snapshot().counters) {
      if (counter.name == "asti_sampler_cache_sets_adopted_total") {
        adopted += counter.value;
      }
    }
    EXPECT_GT(adopted, 0u) << "threads=" << threads;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace asti
