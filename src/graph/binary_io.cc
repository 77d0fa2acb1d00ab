#include "graph/binary_io.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph_builder.h"

namespace asti {

namespace {

constexpr char kMagic[4] = {'A', 'S', 'M', 'G'};
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
void WriteSpan(std::ofstream& out, std::span<const T> values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

template <typename T>
bool ReadVector(std::ifstream& in, size_t count, std::vector<T>* values) {
  values->resize(count);
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveGraphBinary(const DirectedGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  const uint32_t n = graph.NumNodes();
  const uint64_t m = graph.NumEdges();
  WritePod(out, n);
  WritePod(out, m);
  WriteSpan(out, graph.OutOffsets());
  WriteSpan(out, graph.OutTargets());
  WriteSpan(out, graph.OutProbs());
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

StatusOr<DirectedGraph> LoadGraphBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not an ASMG file (bad magic; if it is an ASMS "
                                   "snapshot, open it through the snapshot store)");
  }
  uint32_t version = 0;
  uint32_t n = 0;
  uint64_t m = 0;
  if (!ReadPod(in, &version)) {
    return Status::InvalidArgument("'" + path + "': truncated in the version field");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("'" + path + "': unsupported ASMG version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kVersion) + ")");
  }
  if (!ReadPod(in, &n) || !ReadPod(in, &m)) {
    return Status::InvalidArgument("'" + path + "': truncated in the header (n/m fields)");
  }
  // Check the header's counts against the bytes actually present before
  // allocating for them, dividing rather than multiplying m so a corrupt
  // count can neither overflow nor demand gigabytes up front.
  const uint64_t payload_begin = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::end);
  uint64_t left = static_cast<uint64_t>(in.tellg()) - payload_begin;
  in.seekg(static_cast<std::streamoff>(payload_begin));
  const uint64_t offsets_bytes = (uint64_t{n} + 1) * sizeof(EdgeId);
  if (offsets_bytes > left) {
    return Status::InvalidArgument("'" + path + "': truncated in the out_offsets section");
  }
  left -= offsets_bytes;
  if (m > left / (sizeof(NodeId) + sizeof(double))) {
    return Status::InvalidArgument("'" + path + "': header m = " + std::to_string(m) +
                                   " exceeds the out_targets/out_probs sections' " +
                                   std::to_string(left) + " bytes");
  }

  GraphStorage csr;
  if (!ReadVector(in, static_cast<size_t>(n) + 1, &csr.out_offsets)) {
    return Status::InvalidArgument("'" + path + "': truncated in the out_offsets section");
  }
  if (!ReadVector(in, m, &csr.out_targets)) {
    return Status::InvalidArgument("'" + path + "': truncated in the out_targets section");
  }
  if (!ReadVector(in, m, &csr.out_probs)) {
    return Status::InvalidArgument("'" + path + "': truncated in the out_probs section");
  }
  if (csr.out_offsets.front() != 0 || csr.out_offsets.back() != m) {
    return Status::InvalidArgument("'" + path + "': corrupt out_offsets section (bounds)");
  }
  for (size_t i = 0; i + 1 < csr.out_offsets.size(); ++i) {
    if (csr.out_offsets[i] > csr.out_offsets[i + 1]) {
      return Status::InvalidArgument("'" + path +
                                     "': non-monotone out_offsets section at node " +
                                     std::to_string(i));
    }
  }
  for (size_t e = 0; e < m; ++e) {
    if (csr.out_targets[e] >= n) {
      return Status::InvalidArgument("'" + path + "': out_targets section has endpoint " +
                                     std::to_string(csr.out_targets[e]) +
                                     " outside [0, " + std::to_string(n) + ")");
    }
    if (!(csr.out_probs[e] > 0.0) || csr.out_probs[e] > 1.0) {
      return Status::InvalidArgument("'" + path +
                                     "': out_probs section has probability outside "
                                     "(0, 1] at edge " +
                                     std::to_string(e));
    }
  }

  // The file stores the forward CSR verbatim, so adopt it directly and
  // derive the reverse CSR by counting sort — no edge-list round trip, no
  // comparison sort. (ASMG has no reverse sections; the snapshot store's
  // ASMS format persists both directions.)
  BuildReverseCsr(csr);
  return DirectedGraph(n, std::make_shared<const GraphStorage>(std::move(csr)));
}

}  // namespace asti
