// Tests for the dynamic-graph delta subsystem (src/delta/): batch
// validation and the text serialization, the ApplyDelta digest-identity
// contract against the from-scratch GraphBuilder rebuild, and epoch
// minting through the catalog (SwapWithDelta) under live traffic.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "delta/apply.h"
#include "delta/catalog_delta.h"
#include "delta/churn.h"
#include "delta/edge_delta.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace asti {
namespace {

DirectedGraph TestGraph(uint64_t seed = 501, NodeId nodes = 160) {
  Rng rng(seed);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(nodes, 2, rng),
                                  WeightScheme::kWeightedCascade);
  ASM_CHECK(graph.ok());
  return std::move(graph).value();
}

// Bit-level equality over all seven CSR arrays — stronger than digest
// equality, which is what the delta contract actually promises — plus the
// uniform in-probability each graph derives from them.
void ExpectGraphsBitIdentical(const DirectedGraph& a, const DirectedGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  auto eq = [](auto lhs, auto rhs) {
    return std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end());
  };
  EXPECT_TRUE(eq(a.OutOffsets(), b.OutOffsets()));
  EXPECT_TRUE(eq(a.OutTargets(), b.OutTargets()));
  EXPECT_TRUE(eq(a.OutProbs(), b.OutProbs()));
  EXPECT_TRUE(eq(a.InOffsets(), b.InOffsets()));
  EXPECT_TRUE(eq(a.InSources(), b.InSources()));
  EXPECT_TRUE(eq(a.InProbs(), b.InProbs()));
  EXPECT_TRUE(eq(a.InEdgeIdsFlat(), b.InEdgeIdsFlat()));
  EXPECT_EQ(ForwardCsrDigest(a), ForwardCsrDigest(b));
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    EXPECT_EQ(a.UniformInProbability(v), b.UniformInProbability(v)) << "node " << v;
  }
}

// First node at or after `from` with at least one out-edge.
NodeId FirstSourceFrom(const DirectedGraph& graph, NodeId from) {
  for (NodeId u = from; u < graph.NumNodes(); ++u) {
    if (graph.OutDegree(u) > 0) return u;
  }
  ASM_CHECK(false);
  return 0;
}

// An insert op the base graph certainly absorbs: the `skip`-th absent
// non-self-loop pair in scan order (distinct `skip` ⇒ distinct pairs).
DeltaOp FindAbsentPair(const DirectedGraph& graph, double probability, size_t skip = 0) {
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      if (u == v) continue;
      const auto row = graph.OutNeighbors(u);
      if (!std::binary_search(row.begin(), row.end(), v)) {
        if (skip == 0) return DeltaOp{DeltaOpKind::kInsert, u, v, probability};
        --skip;
      }
    }
  }
  ASM_CHECK(false);
  return {};
}

std::string TempPath(const std::string& leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

// Solve fingerprint for bit-identity assertions across engines.
std::string ResultFingerprint(const SolveResult& result) {
  std::ostringstream out;
  out << result.aggregate.mean_seeds << '|' << result.aggregate.mean_spread << '|';
  for (size_t count : result.seed_counts) out << count << ',';
  out << '|';
  for (double spread : result.spreads) out << spread << ',';
  return out.str();
}

// --- Batch validation and text format ---------------------------------------

TEST(EdgeDeltaTest, TextFormatRoundTripsExactly) {
  EdgeDelta delta;
  delta.base_digest = 0x1234abcd5678ef01ULL;
  delta.result_digest = 0xfeedbeefcafe0042ULL;
  delta.ops.push_back({DeltaOpKind::kInsert, 3, 9, 0.625});
  delta.ops.push_back({DeltaOpKind::kDelete, 7, 2, 0.0});
  delta.ops.push_back({DeltaOpKind::kReweight, 1, 4, 0.1});

  const std::string text = FormatDeltaText(delta);
  const auto parsed = ParseDeltaText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, delta);

  // The same text read back from a file (asm_tool --apply-delta's path).
  const std::string path = TempPath("edge_delta_roundtrip.txt");
  {
    std::ofstream out(path);
    out << text;
  }
  const auto loaded = LoadDeltaFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, delta);

  // Word aliases parse to the same batch as the symbols.
  const auto aliased = ParseDeltaText(
      "# comment\n"
      "delta v1\n"
      "base_digest 0x1234abcd5678ef01\n"
      "result_digest 0xfeedbeefcafe0042\n"
      "insert 3 9 0.625\n"
      "delete 7 2\n"
      "reweight 1 4 0.1\n");
  ASSERT_TRUE(aliased.ok()) << aliased.status().ToString();
  EXPECT_EQ(*aliased, delta);
}

TEST(EdgeDeltaTest, MalformedTextIsInvalidArgument) {
  const char* bad_inputs[] = {
      "+ 1 2 0.5\n",                       // missing "delta v1" header
      "delta v2\n+ 1 2 0.5\n",             // unknown version
      "delta v1\n? 1 2 0.5\n",             // unknown op
      "delta v1\n+ 1 2\n",                 // insert without probability
      "delta v1\n+ 1 2 zero\n",            // unparseable probability
      "delta v1\n+ 1 2 0.0\n",             // probability out of (0, 1]
      "delta v1\n+ 1 2 1.5\n",             // probability out of (0, 1]
      "delta v1\n+ 3 3 0.5\n",             // self-loop
      "delta v1\n+ 1 2 0.5\n- 1 2\n",      // two ops on one pair
      "delta v1\nbase_digest nothex\n",    // bad digest
  };
  for (const char* text : bad_inputs) {
    const auto parsed = ParseDeltaText(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }

  // From a file, the rejection names the file; a missing file is IOError.
  const std::string path = TempPath("edge_delta_malformed.txt");
  {
    std::ofstream out(path);
    out << bad_inputs[3];
  }
  const auto from_file = LoadDeltaFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(from_file.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(from_file.status().message().find(path), std::string::npos)
      << from_file.status().ToString();
  EXPECT_EQ(LoadDeltaFile(path).status().code(), StatusCode::kIOError);
}

TEST(EdgeDeltaTest, ValidateRejectsConflictsAndBadOps) {
  EdgeDelta ok;
  ok.ops.push_back({DeltaOpKind::kInsert, 0, 1, 1.0});
  ok.ops.push_back({DeltaOpKind::kDelete, 1, 0, 0.0});
  EXPECT_TRUE(ValidateDelta(ok).ok());
  EXPECT_TRUE(ValidateDelta(EdgeDelta{}).ok());  // empty batch is valid

  EdgeDelta self_loop;
  self_loop.ops.push_back({DeltaOpKind::kInsert, 4, 4, 0.5});
  EXPECT_EQ(ValidateDelta(self_loop).code(), StatusCode::kInvalidArgument);

  EdgeDelta bad_prob;
  bad_prob.ops.push_back({DeltaOpKind::kReweight, 0, 1, -0.25});
  EXPECT_EQ(ValidateDelta(bad_prob).code(), StatusCode::kInvalidArgument);

  EdgeDelta conflict;
  conflict.ops.push_back({DeltaOpKind::kReweight, 2, 5, 0.5});
  conflict.ops.push_back({DeltaOpKind::kDelete, 2, 5, 0.0});
  EXPECT_EQ(ValidateDelta(conflict).code(), StatusCode::kInvalidArgument);
}

// --- ApplyDelta digest identity ---------------------------------------------

class ApplyDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override { base_ = TestGraph(); }

  // Applies both ways and asserts bit identity; returns the fast-path stats.
  DeltaApplyStats ExpectIdentity(const EdgeDelta& delta) {
    DeltaApplyStats stats;
    const auto fast = ApplyDelta(base_, delta, &stats);
    EXPECT_TRUE(fast.ok()) << fast.status().ToString();
    const auto reference = ApplyDeltaByRebuild(base_, delta);
    EXPECT_TRUE(reference.ok()) << reference.status().ToString();
    if (fast.ok() && reference.ok()) ExpectGraphsBitIdentical(*fast, *reference);
    return stats;
  }

  DirectedGraph base_;
};

TEST_F(ApplyDeltaTest, InsertsMatchRebuild) {
  EdgeDelta delta;
  delta.ops.push_back(FindAbsentPair(base_, 0.375));
  delta.ops.push_back(FindAbsentPair(base_, 0.5, /*skip=*/1));
  const DeltaApplyStats stats = ExpectIdentity(delta);
  EXPECT_EQ(stats.inserted, delta.ops.size());
  EXPECT_FALSE(stats.shared_structure);
}

TEST_F(ApplyDeltaTest, DeletesMatchRebuild) {
  EdgeDelta delta;
  // Rows near both ends of the graph exercise the untouched-run copies.
  const NodeId first = FirstSourceFrom(base_, 0);
  delta.ops.push_back({DeltaOpKind::kDelete, first, base_.OutNeighbors(first).front(), 0.0});
  for (NodeId u = base_.NumNodes() - 1; u > first; --u) {
    if (base_.OutDegree(u) > 0) {
      delta.ops.push_back({DeltaOpKind::kDelete, u, base_.OutNeighbors(u).front(), 0.0});
      break;
    }
  }
  const DeltaApplyStats stats = ExpectIdentity(delta);
  EXPECT_EQ(stats.deleted, delta.ops.size());
  EXPECT_GE(stats.deleted, 1u);
}

TEST_F(ApplyDeltaTest, ReweightsMatchRebuildAndShareStructure) {
  EdgeDelta delta;
  const NodeId u = FirstSourceFrom(base_, 0);
  delta.ops.push_back({DeltaOpKind::kReweight, u, base_.OutNeighbors(u).front(), 0.875});
  const DeltaApplyStats stats = ExpectIdentity(delta);
  EXPECT_EQ(stats.reweighted, 1u);
  EXPECT_TRUE(stats.shared_structure);

  // The shared-structure graph literally aliases the base's target array.
  const auto minted = ApplyDelta(base_, delta);
  ASSERT_TRUE(minted.ok());
  EXPECT_EQ(minted->OutTargets().data(), base_.OutTargets().data());
  EXPECT_NE(minted->OutProbs().data(), base_.OutProbs().data());

  // Reweighting one in-edge of a weighted-cascade node clears that node's
  // uniform in-probability and no other node's.
  const NodeId target = base_.OutNeighbors(u).front();
  ASSERT_GE(base_.InDegree(target), 2u);
  for (NodeId v = 0; v < base_.NumNodes(); ++v) {
    if (base_.InDegree(v) > 0) {
      ASSERT_EQ(base_.UniformInProbability(v), 1.0 / base_.InDegree(v));
    }
    EXPECT_EQ(minted->UniformInProbability(v),
              v == target ? std::nullopt : base_.UniformInProbability(v))
        << "node " << v;
  }
}

TEST_F(ApplyDeltaTest, MixedBatchMatchesRebuild) {
  Rng rng(77);
  ChurnSpec spec;
  spec.inserts = 6;
  spec.deletes = 5;
  spec.reweights = 4;
  const auto delta = MakeRandomDelta(base_, spec, rng);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  const DeltaApplyStats stats = ExpectIdentity(*delta);
  EXPECT_GT(stats.inserted, 0u);
  EXPECT_GT(stats.deleted, 0u);
  EXPECT_GT(stats.reweighted, 0u);
  EXPECT_GT(stats.rows_touched, 0u);
}

TEST_F(ApplyDeltaTest, EmptyBatchMintsIdenticalGraph) {
  const DeltaApplyStats stats = ExpectIdentity(EdgeDelta{});
  EXPECT_TRUE(stats.shared_structure);
  EXPECT_EQ(stats.rows_touched, 0u);
}

TEST_F(ApplyDeltaTest, StampDigestsBindsTheTransition) {
  EdgeDelta delta;
  delta.ops.push_back(FindAbsentPair(base_, 0.25));
  ASSERT_TRUE(StampDigests(base_, delta).ok());
  EXPECT_EQ(delta.base_digest, ForwardCsrDigest(base_));
  const auto minted = ApplyDelta(base_, delta);
  ASSERT_TRUE(minted.ok()) << minted.status().ToString();
  EXPECT_EQ(delta.result_digest, ForwardCsrDigest(*minted));
}

TEST_F(ApplyDeltaTest, InapplicableBatchesAreInvalidArgument) {
  auto expect_invalid = [&](const EdgeDelta& delta) {
    const auto result = ApplyDelta(base_, delta);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  };

  const NodeId u = FirstSourceFrom(base_, 0);
  EdgeDelta insert_existing;
  insert_existing.ops.push_back(
      {DeltaOpKind::kInsert, u, base_.OutNeighbors(u).front(), 0.5});
  expect_invalid(insert_existing);

  EdgeDelta delete_missing;
  DeltaOp absent = FindAbsentPair(base_, 0.5);
  delete_missing.ops.push_back({DeltaOpKind::kDelete, absent.source, absent.target, 0.0});
  expect_invalid(delete_missing);

  EdgeDelta reweight_missing;
  reweight_missing.ops.push_back(
      {DeltaOpKind::kReweight, absent.source, absent.target, 0.5});
  expect_invalid(reweight_missing);

  EdgeDelta out_of_range;
  out_of_range.ops.push_back({DeltaOpKind::kInsert, base_.NumNodes(), 0, 0.5});
  expect_invalid(out_of_range);

  EdgeDelta wrong_base;
  wrong_base.base_digest = ForwardCsrDigest(base_) ^ 1;
  wrong_base.ops.push_back(FindAbsentPair(base_, 0.5));
  expect_invalid(wrong_base);

  EdgeDelta wrong_result;
  wrong_result.ops.push_back(FindAbsentPair(base_, 0.5));
  ASSERT_TRUE(StampDigests(base_, wrong_result).ok());
  wrong_result.result_digest ^= 1;
  expect_invalid(wrong_result);

  // An op edited after stamping (a corrupted file that still parses) mints
  // another graph than the stamped result_digest: refused.
  EdgeDelta edited_op;
  edited_op.ops.push_back(FindAbsentPair(base_, 0.5));
  ASSERT_TRUE(StampDigests(base_, edited_op).ok());
  edited_op.ops[0].probability = 0.25;
  expect_invalid(edited_op);
}

TEST(ChurnTest, RandomDeltasAreDeterministicInTheSeed) {
  const DirectedGraph graph = TestGraph(502);
  ChurnSpec spec;
  Rng a(11), b(11), c(12);
  const auto delta_a = MakeRandomDelta(graph, spec, a);
  const auto delta_b = MakeRandomDelta(graph, spec, b);
  const auto delta_c = MakeRandomDelta(graph, spec, c);
  ASSERT_TRUE(delta_a.ok() && delta_b.ok() && delta_c.ok());
  EXPECT_EQ(*delta_a, *delta_b);
  EXPECT_NE(delta_a->ops, delta_c->ops);
  EXPECT_TRUE(ApplyDelta(graph, *delta_a).ok());
}

// --- Serving on minted epochs -----------------------------------------------

// The acceptance pin: a chain of delta-minted epochs is bit-identical to
// the chain of from-scratch rebuilds of the mutated edge lists, and results
// on the last minted epoch equal results on the last rebuild, at pool sizes
// 1 and 4. The middle batch is reweight-only, so the last one applies over
// structure arrays that epoch shares with its base by span.
TEST(DeltaServingTest, MintedEpochServesBitIdenticalToRebuild) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Register("minted", TestGraph(503, 200)).ok());
  DirectedGraph rebuilt = TestGraph(503, 200);
  ChurnSpec reweight_only;
  reweight_only.inserts = 0;
  reweight_only.deletes = 0;
  Rng rng(21);
  for (const ChurnSpec& spec : {ChurnSpec{}, reweight_only, ChurnSpec{}}) {
    const auto current = catalog.Get("minted");
    ASSERT_TRUE(current.ok());
    const auto delta = MakeRandomDelta(current->graph(), spec, rng);
    ASSERT_TRUE(delta.ok());
    const auto swapped = SwapWithDelta(catalog, "minted", *delta);
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
    EXPECT_EQ(swapped->stats.shared_structure, spec.inserts + spec.deletes == 0);
    EXPECT_GT(swapped->apply_seconds, 0.0);
    EXPECT_GT(swapped->swap_seconds, 0.0);
    auto next = ApplyDeltaByRebuild(rebuilt, *delta);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    rebuilt = std::move(next).value();
  }
  const auto minted = catalog.Get("minted");
  ASSERT_TRUE(minted.ok());
  EXPECT_EQ(minted->epoch(), 4u);
  ExpectGraphsBitIdentical(minted->graph(), rebuilt);
  ASSERT_TRUE(catalog.Register("rebuilt", std::move(rebuilt)).ok());

  for (size_t pool : {size_t{1}, size_t{4}}) {
    SeedMinEngine::ServingOptions options;
    options.num_threads = pool;
    SeedMinEngine engine(catalog, options);
    for (AlgorithmId algorithm : {AlgorithmId::kAsti, AlgorithmId::kAteuc}) {
      SolveRequest request;
      request.algorithm = algorithm;
      request.eta = 20;
      request.realizations = 2;
      request.seed = 40;
      request.graph = "minted";
      const auto on_minted = engine.Solve(request);
      request.graph = "rebuilt";
      const auto on_rebuilt = engine.Solve(request);
      ASSERT_TRUE(on_minted.ok()) << on_minted.status().ToString();
      ASSERT_TRUE(on_rebuilt.ok()) << on_rebuilt.status().ToString();
      EXPECT_EQ(ResultFingerprint(*on_minted), ResultFingerprint(*on_rebuilt))
          << "pool=" << pool;
    }
  }
}

// SwapWithDelta under live traffic: requests admitted before the swap
// complete on their pinned epoch-1 snapshot, bit-identical to an engine
// that never saw a swap; post-swap requests serve the minted epoch.
TEST(DeltaServingTest, SwapWithDeltaPinsInflightRequestsToOldEpoch) {
  GraphCatalog catalog;
  ASSERT_TRUE(catalog.Register("live", TestGraph(504)).ok());

  SolveRequest request;
  request.graph = "live";
  request.eta = 25;
  request.realizations = 2;
  request.seed = 9;

  std::string undisturbed;
  {
    SeedMinEngine reference(catalog, {2});
    const auto result = reference.Solve(request);
    ASSERT_TRUE(result.ok());
    undisturbed = ResultFingerprint(*result);
  }

  SeedMinEngine::ServingOptions options;
  options.num_threads = 2;
  options.num_drivers = 2;
  SeedMinEngine engine(catalog, options);

  std::vector<std::future<StatusOr<SolveResult>>> inflight;
  for (int i = 0; i < 4; ++i) inflight.push_back(engine.SubmitAsync(request));

  const auto base_ref = catalog.Get("live");
  ASSERT_TRUE(base_ref.ok());
  Rng rng(31);
  const auto delta = MakeRandomDelta(base_ref->graph(), ChurnSpec{}, rng);
  ASSERT_TRUE(delta.ok());
  const auto swap = SwapWithDelta(catalog, "live", *delta);
  ASSERT_TRUE(swap.ok()) << swap.status().ToString();
  EXPECT_EQ(swap->ref.epoch(), 2u);
  EXPECT_EQ(swap->minted_digest, delta->result_digest);

  for (auto& future : inflight) {
    const auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->graph_epoch, 1u);
    EXPECT_EQ(ResultFingerprint(*result), undisturbed);
  }

  const auto fresh = engine.Solve(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->graph_epoch, 2u);

  // The minted epoch serves exactly like a from-scratch rebuild.
  auto rebuilt = ApplyDeltaByRebuild(base_ref->graph(), *delta);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(catalog.Register("rebuilt", std::move(rebuilt).value()).ok());
  request.graph = "rebuilt";
  const auto on_rebuilt = engine.Solve(request);
  ASSERT_TRUE(on_rebuilt.ok());
  EXPECT_EQ(ResultFingerprint(*fresh), ResultFingerprint(*on_rebuilt));
}

}  // namespace
}  // namespace asti
