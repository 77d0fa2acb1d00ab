// Tests for graph/binary_io.h: round trip, corruption handling.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "diffusion/realization.h"
#include "graph/binary_io.h"
#include "graph/graph_builder.h"
#include "graph/generators.h"

namespace asti {
namespace {

std::string TempPath(const char* name) { return testing::TempDir() + "/" + name; }

TEST(BinaryIoTest, RoundTripPreservesGraph) {
  Rng rng(331);
  auto graph = BuildWeightedGraph(MakeErdosRenyi(200, 1500, rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("asti_graph.asmg");
  ASSERT_TRUE(SaveGraphBinary(*graph, path).ok());
  auto loaded = LoadGraphBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), graph->NumNodes());
  EXPECT_EQ(loaded->NumEdges(), graph->NumEdges());
  for (NodeId u = 0; u < graph->NumNodes(); ++u) {
    auto expected = graph->OutNeighbors(u);
    auto actual = loaded->OutNeighbors(u);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], actual[i]);
      EXPECT_DOUBLE_EQ(graph->OutProbabilities(u)[i], loaded->OutProbabilities(u)[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyGraphRoundTrips) {
  GraphBuilder builder(7);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("asti_empty.asmg");
  ASSERT_TRUE(SaveGraphBinary(*graph, path).ok());
  auto loaded = LoadGraphBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumNodes(), 7u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsWrongMagic) {
  const std::string path = TempPath("asti_bad_magic.asmg");
  std::ofstream(path) << "this is not a graph";
  auto loaded = LoadGraphBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RejectsTruncatedPayload) {
  Rng rng(332);
  auto graph =
      BuildWeightedGraph(MakeErdosRenyi(50, 300, rng), WeightScheme::kUniform, 0.2);
  ASSERT_TRUE(graph.ok());
  const std::string path = TempPath("asti_truncated.asmg");
  ASSERT_TRUE(SaveGraphBinary(*graph, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  auto loaded = LoadGraphBinary(path);
  ASSERT_FALSE(loaded.ok());

  // Header counts far past the file size (a 36-byte file claiming
  // m = 2^62, then one claiming n = 2^31 - 1): rejected before allocating.
  const auto write_header = [&](uint32_t n, uint64_t m) {
    std::ofstream header(path, std::ios::binary | std::ios::trunc);
    const uint32_t version = 1;
    const uint32_t offsets[4] = {0, 0, 0, 0};
    header.write("ASMG", 4);
    header.write(reinterpret_cast<const char*>(&version), sizeof(version));
    header.write(reinterpret_cast<const char*>(&n), sizeof(n));
    header.write(reinterpret_cast<const char*>(&m), sizeof(m));
    header.write(reinterpret_cast<const char*>(offsets), sizeof(offsets));
  };
  write_header(3, uint64_t{1} << 62);
  EXPECT_EQ(LoadGraphBinary(path).status().code(), StatusCode::kInvalidArgument);
  write_header(0x7fffffff, 0);
  EXPECT_EQ(LoadGraphBinary(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIOError) {
  auto loaded = LoadGraphBinary("/nonexistent/graph.asmg");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(LtValidationTest, AcceptsWcRejectsOverloaded) {
  Rng rng(333);
  auto wc = BuildWeightedGraph(MakeErdosRenyi(60, 300, rng),
                               WeightScheme::kWeightedCascade);
  ASSERT_TRUE(wc.ok());
  EXPECT_TRUE(ValidateLtCompatible(*wc).ok());

  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 2, 0.8).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.8).ok());  // sums to 1.6 at node 2
  auto overloaded = builder.Build();
  ASSERT_TRUE(overloaded.ok());
  const Status status = ValidateLtCompatible(*overloaded);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace asti
