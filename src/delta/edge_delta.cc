#include "delta/edge_delta.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace asti {

const char* DeltaOpKindName(DeltaOpKind kind) {
  switch (kind) {
    case DeltaOpKind::kInsert:
      return "insert";
    case DeltaOpKind::kDelete:
      return "delete";
    case DeltaOpKind::kReweight:
      return "reweight";
  }
  return "unknown";
}

size_t EdgeDelta::CountKind(DeltaOpKind kind) const {
  return static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [kind](const DeltaOp& op) { return op.kind == kind; }));
}

namespace {

std::string OpLabel(const DeltaOp& op) {
  return std::string(DeltaOpKindName(op.kind)) + " " + std::to_string(op.source) +
         " -> " + std::to_string(op.target);
}

}  // namespace

Status ValidateDelta(const EdgeDelta& delta) {
  for (const DeltaOp& op : delta.ops) {
    if (op.kind != DeltaOpKind::kInsert && op.kind != DeltaOpKind::kDelete &&
        op.kind != DeltaOpKind::kReweight) {
      return Status::InvalidArgument("delta op has unknown kind " +
                                     std::to_string(static_cast<int>(op.kind)));
    }
    if (op.source == op.target) {
      return Status::InvalidArgument("delta op is a self-loop: " + OpLabel(op));
    }
    if (op.kind != DeltaOpKind::kDelete &&
        (!(op.probability > 0.0) || op.probability > 1.0)) {
      return Status::InvalidArgument("delta op probability must be in (0, 1]: " +
                                     OpLabel(op) + " p=" +
                                     std::to_string(op.probability));
    }
  }
  // One op per edge: conflicting ops in a single batch have no defined
  // apply order, so they are rejected rather than silently resolved.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(delta.ops.size());
  for (const DeltaOp& op : delta.ops) pairs.emplace_back(op.source, op.target);
  std::sort(pairs.begin(), pairs.end());
  const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
  if (dup != pairs.end()) {
    return Status::InvalidArgument(
        "delta has multiple ops for edge " + std::to_string(dup->first) + " -> " +
        std::to_string(dup->second));
  }
  return Status::OK();
}

namespace {

Status LineError(size_t line_number, const std::string& msg) {
  return Status::InvalidArgument("delta text line " + std::to_string(line_number) +
                                 ": " + msg);
}

bool ParseHexOrDec(const std::string& token, uint64_t& out) {
  try {
    size_t used = 0;
    out = std::stoull(token, &used, 0);  // base 0: 0x-prefixed hex or decimal
    return used == token.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

StatusOr<EdgeDelta> ParseDeltaText(const std::string& text) {
  EdgeDelta delta;
  std::istringstream stream(text);
  std::string line;
  size_t line_number = 0;
  bool saw_header = false;
  while (std::getline(stream, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string word;
    if (!(fields >> word)) continue;              // blank
    if (word[0] == '#' || word[0] == '%') continue;  // comment
    if (!saw_header) {
      std::string version;
      if (word != "delta" || !(fields >> version) || version != "v1") {
        return LineError(line_number, "expected header 'delta v1'");
      }
      saw_header = true;
      continue;
    }
    if (word == "base_digest" || word == "result_digest") {
      std::string value;
      uint64_t digest = 0;
      if (!(fields >> value) || !ParseHexOrDec(value, digest)) {
        return LineError(line_number, "expected '" + word + " <integer>'");
      }
      (word == "base_digest" ? delta.base_digest : delta.result_digest) = digest;
      continue;
    }
    DeltaOp op;
    if (word == "+" || word == "insert") {
      op.kind = DeltaOpKind::kInsert;
    } else if (word == "-" || word == "delete") {
      op.kind = DeltaOpKind::kDelete;
    } else if (word == "~" || word == "reweight") {
      op.kind = DeltaOpKind::kReweight;
    } else {
      return LineError(line_number, "unknown op '" + word + "' (want + / - / ~)");
    }
    int64_t source = -1;
    int64_t target = -1;
    if (!(fields >> source >> target) || source < 0 || target < 0 ||
        source > std::numeric_limits<NodeId>::max() ||
        target > std::numeric_limits<NodeId>::max()) {
      return LineError(line_number, "expected two non-negative node ids");
    }
    op.source = static_cast<NodeId>(source);
    op.target = static_cast<NodeId>(target);
    if (op.kind != DeltaOpKind::kDelete) {
      // Read the token as text and strtod it: strtod parses the hexfloat
      // form FormatDeltaText emits (istream extraction does not, portably).
      std::string prob;
      if (!(fields >> prob)) {
        return LineError(line_number, "expected a probability");
      }
      char* end = nullptr;
      op.probability = std::strtod(prob.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return LineError(line_number, "bad probability '" + prob + "'");
      }
    }
    std::string extra;
    if (fields >> extra) {
      return LineError(line_number, "trailing token '" + extra + "'");
    }
    delta.ops.push_back(op);
  }
  if (!saw_header) {
    return Status::InvalidArgument("delta text: missing 'delta v1' header");
  }
  ASM_RETURN_NOT_OK(ValidateDelta(delta));
  return delta;
}

StatusOr<EdgeDelta> LoadDeltaFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  StatusOr<EdgeDelta> parsed = ParseDeltaText(buffer.str());
  if (!parsed.ok()) {
    return Status(parsed.status().code(), "delta '" + path + "': " +
                                              parsed.status().message());
  }
  return parsed;
}

std::string FormatDeltaText(const EdgeDelta& delta) {
  std::ostringstream out;
  out << "delta v1\n";
  char buffer[32];
  if (delta.base_digest != 0) {
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(delta.base_digest));
    out << "base_digest " << buffer << "\n";
  }
  if (delta.result_digest != 0) {
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(delta.result_digest));
    out << "result_digest " << buffer << "\n";
  }
  for (const DeltaOp& op : delta.ops) {
    switch (op.kind) {
      case DeltaOpKind::kInsert:
        out << "+ ";
        break;
      case DeltaOpKind::kDelete:
        out << "- ";
        break;
      case DeltaOpKind::kReweight:
        out << "~ ";
        break;
    }
    out << op.source << " " << op.target;
    if (op.kind != DeltaOpKind::kDelete) {
      // Probabilities round-trip exactly: hexfloat is bit-precise and
      // std::istream reads it back (the parse side uses operator>>).
      std::snprintf(buffer, sizeof(buffer), " %a", op.probability);
      out << buffer;
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace asti
