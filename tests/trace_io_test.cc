// Tests for core/trace_io.h: serialization round trip and error handling.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/asti.h"
#include "core/trace_io.h"
#include "core/trim.h"
#include "graph/generators.h"

namespace asti {
namespace {

AdaptiveRunTrace MakeHandTrace() {
  AdaptiveRunTrace trace;
  trace.eta = 10;
  trace.total_activated = 12;
  trace.target_reached = true;
  trace.seconds = 0.5;
  trace.total_samples = 321;
  RoundRecord r1;
  r1.round = 1;
  r1.seeds = {4, 7};
  r1.shortfall_before = 10;
  r1.newly_activated = 8;
  r1.truncated_gain = 8;
  r1.estimated_gain = 7.5;
  r1.num_samples = 200;
  r1.seconds = 0.3;
  RoundRecord r2;
  r2.round = 2;
  r2.seeds = {1};
  r2.shortfall_before = 2;
  r2.newly_activated = 4;
  r2.truncated_gain = 2;
  r2.estimated_gain = 2.25;
  r2.num_samples = 121;
  r2.seconds = 0.2;
  trace.rounds = {r1, r2};
  trace.seeds = {4, 7, 1};
  return trace;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const std::vector<AdaptiveRunTrace> original = {MakeHandTrace(), MakeHandTrace()};
  auto parsed = ParseTraces(SerializeTraces(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  for (const AdaptiveRunTrace& trace : *parsed) {
    EXPECT_EQ(trace.eta, 10u);
    EXPECT_EQ(trace.total_activated, 12u);
    EXPECT_TRUE(trace.target_reached);
    EXPECT_DOUBLE_EQ(trace.seconds, 0.5);
    EXPECT_EQ(trace.total_samples, 321u);
    ASSERT_EQ(trace.rounds.size(), 2u);
    EXPECT_EQ(trace.rounds[0].seeds, (std::vector<NodeId>{4, 7}));
    EXPECT_DOUBLE_EQ(trace.rounds[0].estimated_gain, 7.5);
    EXPECT_EQ(trace.rounds[1].truncated_gain, 2u);
    EXPECT_EQ(trace.seeds, (std::vector<NodeId>{4, 7, 1}));
  }
}

TEST(TraceIoTest, RealRunRoundTrips) {
  Rng graph_rng(211);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(80, 400, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  Rng world_rng(212);
  AdaptiveWorld world(*graph, DiffusionModel::kIndependentCascade, 20, world_rng);
  Trim trim(*graph, DiffusionModel::kIndependentCascade, TrimOptions{0.5});
  Rng rng(213);
  const AdaptiveRunTrace trace = RunAdaptivePolicy(world, trim, rng);

  auto parsed = ParseTraces(SerializeTraces({trace}));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0].seeds, trace.seeds);
  EXPECT_EQ((*parsed)[0].rounds.size(), trace.rounds.size());
  EXPECT_EQ((*parsed)[0].total_activated, trace.total_activated);
}

TEST(TraceIoTest, EmptyInputYieldsNoTraces) {
  auto parsed = ParseTraces("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseTraces("garbage 1 2 3\n").ok());
  EXPECT_FALSE(ParseTraces("round 1 2 3 4 5 6 0.1 7\n").ok());  // outside trace
  EXPECT_FALSE(ParseTraces("trace 10 12 1 0.5 321\n").ok());    // unterminated
  EXPECT_FALSE(ParseTraces("trace 10 12 1 0.5 321\ntrace 1 1 1 1 1\nend\n").ok());
  EXPECT_FALSE(
      ParseTraces("trace 10 12 1 0.5 321\nround 1 10 8 8 7.5 200 0.3\nend\n").ok());
  // ^ round without seeds
  // Numbers must fill their token and fit their field; nothing is skipped.
  const auto rejects = [](const std::string& text, const std::string& message) {
    const auto parsed = ParseTraces(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().ToString().find(message), std::string::npos)
        << parsed.status().ToString();
  };
  rejects("trace -3 5 1 0.5 100 extra\nend\n", "line 1: bad eta '-3'");
  rejects("trace 3 5 1 0.5 100 extra\nend\n", "line 1: unexpected token 'extra'");
  rejects("trace 10 12 1 0.5 321\nround 1 10 8 8 7.5 200 0.3 7 junk\nend\n",
          "line 2: bad seed 'junk'");
  rejects("trace 10 12 1 0.5 321\nround 1 10 8 8 7.5 200 0.3 -1\nend\n",
          "line 2: bad seed '-1'");
  rejects("trace 10 12 1 0.5 321\nround 1 10 8 8 7.5 200 0.3 4294967295\nend\n",
          "line 2: bad seed '4294967295'");
  rejects("trace 4294967296 12 1 0.5 321\nend\n", "line 1: bad eta");
  rejects("trace 10 12 2 0.5 321\nend\n", "line 1: bad reached '2'");
  rejects("trace 10 12 1 -0.5 321\nend\n", "line 1: bad seconds '-0.5'");
  rejects("trace 10 12 1 0.5\nend\n", "line 1: missing total_samples");
  rejects("trace 10 12 1 0.5 321\nround 1 10 8 8 nan 200 0.3 7\nend\n",
          "line 2: bad estimated_gain 'nan'");
  rejects("trace 10 12 1 0.5 321\nend 5\n", "line 2: unexpected token '5'");
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/asti_traces_test.txt";
  const std::vector<AdaptiveRunTrace> original = {MakeHandTrace()};
  ASSERT_TRUE(SaveTraces(original, path).ok());
  auto loaded = LoadTraces(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].seeds, original[0].seeds);
  std::remove(path.c_str());
}

TEST(TraceIoTest, MissingFileIsIOError) {
  auto loaded = LoadTraces("/nonexistent/trace/file.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace asti
