#include "graph/edge_list_io.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "graph/graph_builder.h"

namespace asti {

namespace {

// Parses all of `token` as a T: a sign an unsigned T cannot hold, a
// fraction in an id, or trailing junk fails instead of being truncated.
template <class T>
bool ParseWhole(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, out);
  return error == std::errc() && stop == end;
}

StatusOr<EdgeListFile> ParseFromStream(std::istream& in) {
  EdgeListFile file;
  std::string line;
  std::vector<std::string> tokens;
  size_t line_number = 0;
  bool saw_probability = false;
  bool saw_bare_edge = false;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && (line[0] == '#' || line[0] == '%')) {
      if (line.find("undirected") != std::string::npos) file.undirected = true;
      continue;
    }
    std::istringstream words(line);
    tokens.clear();
    for (std::string token; words >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;  // blank or whitespace-only
    const auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("edge list line " + std::to_string(line_number) + ": " +
                                     why);
    };
    if (tokens.size() < 2 || tokens.size() > 3) {
      return malformed("expected '<source> <target> [probability]', got " +
                       std::to_string(tokens.size()) + " fields");
    }
    NodeId ends[2];
    const char* const names[2] = {"source", "target"};
    for (size_t i = 0; i < 2; ++i) {
      uint64_t id = 0;
      if (!ParseWhole(tokens[i], id) || id >= kInvalidNode) {
        return malformed(std::string("bad ") + names[i] + " '" + tokens[i] + "'");
      }
      ends[i] = static_cast<NodeId>(id);
    }
    double p = 1.0;
    if (tokens.size() == 3) {
      if (!ParseWhole(tokens[2], p) || !(p > 0.0) || p > 1.0) {
        return malformed("bad probability '" + tokens[2] + "', want a number in (0, 1]");
      }
      saw_probability = true;
    } else {
      saw_bare_edge = true;
    }
    file.edges.push_back(Edge{ends[0], ends[1], p});
    file.num_nodes = std::max(file.num_nodes, std::max(ends[0], ends[1]) + 1);
  }
  if (saw_probability && saw_bare_edge) {
    return Status::InvalidArgument("mixed weighted and unweighted edge lines");
  }
  file.has_probabilities = saw_probability;
  return file;
}

}  // namespace

StatusOr<EdgeListFile> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ParseFromStream(in);
}

StatusOr<EdgeListFile> ParseEdgeList(const std::string& text) {
  std::istringstream in(text);
  return ParseFromStream(in);
}

StatusOr<DirectedGraph> BuildGraphFromEdgeList(const EdgeListFile& file) {
  GraphBuilder builder(file.num_nodes);
  for (const Edge& e : file.edges) {
    if (file.undirected) {
      ASM_RETURN_NOT_OK(builder.AddUndirectedEdge(e.source, e.target, e.probability));
    } else {
      ASM_RETURN_NOT_OK(builder.AddEdge(e.source, e.target, e.probability));
    }
  }
  return builder.Build(GraphBuilder::DuplicatePolicy::kKeepMaxProbability);
}

Status SaveEdgeList(const DirectedGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  // max_digits10 digits reload every probability bit for bit.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# directed edge list: source target probability\n";
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    auto neighbors = graph.OutNeighbors(u);
    auto probs = graph.OutProbabilities(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      out << u << ' ' << neighbors[i] << ' ' << probs[i] << '\n';
    }
  }
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace asti
