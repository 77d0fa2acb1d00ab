#include "core/trace_io.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

namespace asti {

std::string SerializeTraces(const std::vector<AdaptiveRunTrace>& traces) {
  std::ostringstream out;
  out.precision(17);
  for (const AdaptiveRunTrace& trace : traces) {
    out << "trace " << trace.eta << ' ' << trace.total_activated << ' '
        << (trace.target_reached ? 1 : 0) << ' ' << trace.seconds << ' '
        << trace.total_samples << '\n';
    for (const RoundRecord& round : trace.rounds) {
      out << "round " << round.round << ' ' << round.shortfall_before << ' '
          << round.newly_activated << ' ' << round.truncated_gain << ' '
          << round.estimated_gain << ' ' << round.num_samples << ' '
          << round.seconds;
      for (NodeId seed : round.seeds) out << ' ' << seed;
      out << '\n';
    }
    out << "end\n";
  }
  return out.str();
}

namespace {

// Parses all of `token` as a value of T: integers unsigned and at most
// `max`, reals finite and non-negative. A sign, a fraction, trailing junk
// or an out-of-range value fails instead of being truncated.
template <class T>
bool ParseWhole(const std::string& token, T& out, uint64_t max) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, out);
  if (error != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out) && out >= 0.0;
  else return static_cast<uint64_t>(out) <= max;
}

}  // namespace

StatusOr<std::vector<AdaptiveRunTrace>> ParseTraces(const std::string& text) {
  std::istringstream in(text);
  std::vector<AdaptiveRunTrace> traces;
  AdaptiveRunTrace current;
  bool in_trace = false;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream words(line);
    std::vector<std::string> tokens;
    for (std::string token; words >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;
    const auto malformed = [&](const std::string& why) {
      return Status::InvalidArgument("line " + std::to_string(line_number) + ": " + why);
    };
    // Reads the next token into `out`; every failure names its field.
    size_t next = 1;
    const auto read = [&](const char* field, auto& out,
                          uint64_t max = std::numeric_limits<uint64_t>::max()) {
      if (next == tokens.size()) return malformed(std::string("missing ") + field);
      const std::string& token = tokens[next++];
      if (ParseWhole(token, out, max)) return Status::OK();
      return malformed(std::string("bad ") + field + " '" + token + "'");
    };
    const auto finish = [&] {
      if (next == tokens.size()) return Status::OK();
      return malformed("unexpected token '" + tokens[next] + "'");
    };
    const std::string& tag = tokens[0];
    if (tag == "trace") {
      if (in_trace) return malformed("nested trace");
      current = AdaptiveRunTrace{};
      unsigned reached = 0;
      ASM_RETURN_NOT_OK(read("eta", current.eta));
      ASM_RETURN_NOT_OK(read("total_activated", current.total_activated));
      ASM_RETURN_NOT_OK(read("reached", reached, 1));
      ASM_RETURN_NOT_OK(read("seconds", current.seconds));
      ASM_RETURN_NOT_OK(read("total_samples", current.total_samples));
      ASM_RETURN_NOT_OK(finish());
      current.target_reached = reached != 0;
      in_trace = true;
    } else if (tag == "round") {
      if (!in_trace) return malformed("round outside trace");
      RoundRecord round;
      ASM_RETURN_NOT_OK(read("round", round.round));
      ASM_RETURN_NOT_OK(read("shortfall", round.shortfall_before));
      ASM_RETURN_NOT_OK(read("newly_activated", round.newly_activated));
      ASM_RETURN_NOT_OK(read("truncated_gain", round.truncated_gain));
      ASM_RETURN_NOT_OK(read("estimated_gain", round.estimated_gain));
      ASM_RETURN_NOT_OK(read("num_samples", round.num_samples));
      ASM_RETURN_NOT_OK(read("seconds", round.seconds));
      while (next < tokens.size()) {
        NodeId seed = 0;
        ASM_RETURN_NOT_OK(read("seed", seed, kInvalidNode - 1));
        round.seeds.push_back(seed);
        current.seeds.push_back(seed);
      }
      if (round.seeds.empty()) return malformed("round without seeds");
      current.rounds.push_back(std::move(round));
    } else if (tag == "end") {
      if (!in_trace) return malformed("end outside trace");
      ASM_RETURN_NOT_OK(finish());
      traces.push_back(std::move(current));
      in_trace = false;
    } else {
      return malformed("unknown tag '" + tag + "'");
    }
  }
  if (in_trace) return Status::InvalidArgument("unterminated trace");
  return traces;
}

Status SaveTraces(const std::vector<AdaptiveRunTrace>& traces, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << SerializeTraces(traces);
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<std::vector<AdaptiveRunTrace>> LoadTraces(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTraces(buffer.str());
}

}  // namespace asti
