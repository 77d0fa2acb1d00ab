// Text edge-list persistence.
//
// Format, one edge per line:
//     <source> <target> [probability]
// Lines starting with '#' or '%' are comments, and blank lines are
// skipped. Every other line holds exactly two or three whitespace-separated
// fields, each parsed whole: ids are unsigned integers below kInvalidNode,
// the probability a number in (0, 1]. Anything else is InvalidArgument
// naming the line and the field. When the probability column is absent the
// loader leaves it to a WeightModel pass (edges get the sentinel 1.0 and
// LoadEdgeList reports has_probabilities = false). SaveEdgeList writes
// max_digits10 digits, so probabilities reload bit for bit.

#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace asti {

/// Result of parsing an edge-list file.
struct EdgeListFile {
  NodeId num_nodes = 0;  // 1 + max endpoint seen
  std::vector<Edge> edges;
  bool has_probabilities = false;
  bool undirected = false;  // set from "# undirected" header line
};

/// Parses an edge list from a file on disk.
StatusOr<EdgeListFile> LoadEdgeList(const std::string& path);

/// Parses an edge list from an in-memory string (testing convenience).
StatusOr<EdgeListFile> ParseEdgeList(const std::string& text);

/// Builds a DirectedGraph from a parsed edge list. Undirected inputs are
/// expanded into both directions. Duplicate edges keep the max probability.
StatusOr<DirectedGraph> BuildGraphFromEdgeList(const EdgeListFile& file);

/// Writes graph edges as "<u> <v> <p>" lines.
Status SaveEdgeList(const DirectedGraph& graph, const std::string& path);

}  // namespace asti
