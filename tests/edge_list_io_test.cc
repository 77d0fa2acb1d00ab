// Tests for graph/edge_list_io.h: parsing, validation, save/load round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "graph/edge_list_io.h"
#include "graph/graph_builder.h"

namespace asti {
namespace {

TEST(EdgeListIoTest, ParsesWeightedEdges) {
  auto file = ParseEdgeList("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->num_nodes, 3u);
  ASSERT_EQ(file->edges.size(), 2u);
  EXPECT_TRUE(file->has_probabilities);
  EXPECT_DOUBLE_EQ(file->edges[0].probability, 0.5);
}

TEST(EdgeListIoTest, ParsesUnweightedEdges) {
  auto file = ParseEdgeList("0 1\n2 0\n");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file->has_probabilities);
  EXPECT_EQ(file->num_nodes, 3u);
}

TEST(EdgeListIoTest, SkipsCommentsAndBlankLines) {
  auto file = ParseEdgeList("# header\n\n% other comment\n  \t\n0 1 0.5\n");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->edges.size(), 1u);
}

TEST(EdgeListIoTest, UndirectedHeaderDetected) {
  auto file = ParseEdgeList("# undirected\n0 1 0.5\n");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->undirected);
}

TEST(EdgeListIoTest, RejectsMalformedLine) {
  auto file = ParseEdgeList("0 x 0.5\n");
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
  // Each field is consumed whole, and a line holds two or three fields: a
  // fractional id, trailing junk or a non-numeric probability is rejected
  // with the line and the field named, never truncated or zeroed.
  const std::pair<const char*, const char*> cases[] = {
      {"1 2.7 0.5\n", "target"},
      {"1 2 0.5 junk\n", "fields"},
      {"0 1 0.5x\n", "probability"},
      {"1 2 junk\n", "probability"},
  };
  for (const auto& [text, field] : cases) {
    auto bad = ParseEdgeList(std::string("# header\n") + text);
    EXPECT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
        << bad.status().message();
    EXPECT_NE(bad.status().message().find(field), std::string::npos)
        << bad.status().message();
  }
}

TEST(EdgeListIoTest, RejectsNegativeIds) {
  EXPECT_FALSE(ParseEdgeList("-1 2 0.5\n").ok());
}

TEST(EdgeListIoTest, RejectsBadProbability) {
  EXPECT_FALSE(ParseEdgeList("0 1 1.5\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 1 0\n").ok());
}

TEST(EdgeListIoTest, RejectsMixedWeightedUnweighted) {
  auto file = ParseEdgeList("0 1 0.5\n1 2\n");
  EXPECT_FALSE(file.ok());
}

TEST(EdgeListIoTest, BuildGraphDirected) {
  auto file = ParseEdgeList("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(file.ok());
  auto graph = BuildGraphFromEdgeList(*file);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumNodes(), 3u);
  EXPECT_EQ(graph->NumEdges(), 2u);
}

TEST(EdgeListIoTest, BuildGraphUndirectedDoubles) {
  auto file = ParseEdgeList("# undirected\n0 1 0.5\n");
  ASSERT_TRUE(file.ok());
  auto graph = BuildGraphFromEdgeList(*file);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumEdges(), 2u);
}

TEST(EdgeListIoTest, LoadMissingFileIsIOError) {
  auto file = LoadEdgeList("/nonexistent/path/to/edges.txt");
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

TEST(EdgeListIoTest, SaveLoadRoundTrip) {
  // 1/3 and 1/7 need all 17 significant digits to reload bit for bit.
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(0, 2, 1.0 / 3.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0, 1.0 / 7.0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.125).ok());
  ASSERT_TRUE(builder.AddEdge(2, 0, 1.0).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  const std::string path = testing::TempDir() + "/asti_edge_list_test.txt";
  ASSERT_TRUE(SaveEdgeList(*graph, path).ok());
  auto reloaded_file = LoadEdgeList(path);
  ASSERT_TRUE(reloaded_file.ok());
  auto reloaded = BuildGraphFromEdgeList(*reloaded_file);
  ASSERT_TRUE(reloaded.ok());

  EXPECT_EQ(reloaded->NumNodes(), graph->NumNodes());
  EXPECT_EQ(reloaded->NumEdges(), graph->NumEdges());
  const auto original_edges = graph->ToEdgeList();
  const auto reloaded_edges = reloaded->ToEdgeList();
  ASSERT_EQ(reloaded_edges.size(), original_edges.size());
  for (size_t i = 0; i < original_edges.size(); ++i) {
    EXPECT_EQ(original_edges[i].source, reloaded_edges[i].source);
    EXPECT_EQ(original_edges[i].target, reloaded_edges[i].target);
    EXPECT_EQ(original_edges[i].probability, reloaded_edges[i].probability);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asti
