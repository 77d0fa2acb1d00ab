#include "store/snapshot_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "graph/graph_builder.h"
#include "store/mapped_file.h"
#include "store/snapshot_format.h"
#include "util/crc32.h"

namespace asti::store {

namespace {

/// Owns everything a loaded snapshot's spans point into: the mapping (or
/// heap fallback) plus, for compact files, the rebuilt reverse arrays.
/// Graph copies, collection chunks, and warm-source prefixes all hold a
/// shared_ptr to one of these — the "retire mid-solve keeps the mapping
/// alive" guarantee is this refcount.
struct SnapshotPayload {
  MappedFile file;
  GraphStorage rebuilt;  // reverse CSR only; empty when the file carries one
};

const char* SectionName(uint32_t type) {
  switch (static_cast<SectionType>(type)) {
    case SectionType::kGraphMeta:
      return "graph_meta";
    case SectionType::kOutOffsets:
      return "out_offsets";
    case SectionType::kOutTargets:
      return "out_targets";
    case SectionType::kOutProbs:
      return "out_probs";
    case SectionType::kInOffsets:
      return "in_offsets";
    case SectionType::kInSources:
      return "in_sources";
    case SectionType::kInProbs:
      return "in_probs";
    case SectionType::kInEdgeIds:
      return "in_edge_ids";
    case SectionType::kRrCollection:
      return "rr_collection";
  }
  return "unknown";
}

std::string SectionLabel(size_t index, uint32_t type) {
  return "section " + std::to_string(index) + " (" + SectionName(type) + ")";
}

Status Bad(const std::string& path, const std::string& msg) {
  return Status::InvalidArgument("snapshot '" + path + "': " + msg);
}

template <class T>
std::span<const T> SpanAt(std::span<const std::byte> bytes, uint64_t offset,
                          uint64_t count) {
  return {reinterpret_cast<const T*>(bytes.data() + offset), static_cast<size_t>(count)};
}

/// One validated collection section, as spans into the mapping.
struct CollectionRecord {
  SamplerCacheKey key;
  std::span<const uint64_t> offsets;
  std::span<const NodeId> pool;
  std::span<const uint32_t> coverage;
};

/// Everything Parse() extracts; spans point into the file bytes.
struct Parsed {
  FileHeader header;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  WeightScheme scheme = WeightScheme::kWeightedCascade;
  std::string name;
  std::span<const EdgeId> out_offsets;
  std::span<const NodeId> out_targets;
  std::span<const double> out_probs;
  std::span<const EdgeId> in_offsets;
  std::span<const NodeId> in_sources;
  std::span<const double> in_probs;
  std::span<const EdgeId> in_edge_ids;
  bool has_reverse = false;
  std::vector<CollectionRecord> collections;
};

/// Validates `bytes` as an ASMS v1 file at the requested tier and extracts
/// typed spans. Structural work is O(section_count) — it never walks an
/// array payload (the kChecksums CRC pass at the end is the only O(file)
/// part, and only when asked for).
StatusOr<Parsed> Parse(std::span<const std::byte> bytes, const std::string& path,
                       SnapshotVerify verify) {
  // Header.
  if (bytes.size() < sizeof(FileHeader)) {
    return Bad(path, "file header: only " + std::to_string(bytes.size()) +
                         " bytes, need " + std::to_string(sizeof(FileHeader)) +
                         " (truncated?)");
  }
  Parsed parsed;
  std::memcpy(&parsed.header, bytes.data(), sizeof(FileHeader));
  const FileHeader& header = parsed.header;
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic)) != 0) {
    return Bad(path, "file header: bad magic (not an ASMS snapshot)");
  }
  if (header.version != kSnapshotVersion) {
    return Bad(path, "file header: unsupported snapshot version " +
                         std::to_string(header.version) + " (this build reads version " +
                         std::to_string(kSnapshotVersion) + ")");
  }
  {
    FileHeader crc_input = header;
    crc_input.header_crc = 0;
    if (Crc32(&crc_input, sizeof(crc_input)) != header.header_crc) {
      return Bad(path, "file header: CRC mismatch (header corrupted)");
    }
  }
  if (header.file_bytes != bytes.size()) {
    return Bad(path, "file header: declares " + std::to_string(header.file_bytes) +
                         " bytes but the file has " + std::to_string(bytes.size()) +
                         " (truncated or padded)");
  }

  // Section table.
  const uint64_t table_bytes = uint64_t{header.section_count} * sizeof(SectionEntry);
  const uint64_t table_end = sizeof(FileHeader) + table_bytes;
  if (header.section_count == 0 || table_end > bytes.size()) {
    return Bad(path, "section table: " + std::to_string(header.section_count) +
                         " sections do not fit in the file");
  }
  const std::span<const SectionEntry> table =
      SpanAt<SectionEntry>(bytes, sizeof(FileHeader), header.section_count);
  if (Crc32(table.data(), table_bytes) != header.table_crc) {
    return Bad(path, "section table: CRC mismatch (table corrupted)");
  }

  // Per-entry bounds; locate the singleton graph sections.
  constexpr size_t kMaxGraphType = static_cast<size_t>(SectionType::kInEdgeIds);
  std::optional<size_t> graph_sections[kMaxGraphType + 1];
  std::vector<size_t> collection_sections;
  for (size_t i = 0; i < table.size(); ++i) {
    const SectionEntry& entry = table[i];
    const std::string label = SectionLabel(i, entry.type);
    const bool known_graph =
        entry.type >= 1 && entry.type <= kMaxGraphType;
    if (!known_graph && entry.type != static_cast<uint32_t>(SectionType::kRrCollection)) {
      return Bad(path, label + ": unknown section type");
    }
    if (entry.offset % kSectionAlignment != 0) {
      return Bad(path, label + ": offset " + std::to_string(entry.offset) +
                           " is not " + std::to_string(kSectionAlignment) + "-aligned");
    }
    if (entry.offset < table_end || entry.bytes > bytes.size() ||
        entry.offset > bytes.size() - entry.bytes) {
      return Bad(path, label + ": payload [" + std::to_string(entry.offset) + ", +" +
                           std::to_string(entry.bytes) + ") is out of file range");
    }
    if (known_graph) {
      if (graph_sections[entry.type].has_value()) {
        return Bad(path, label + ": duplicate section type");
      }
      graph_sections[entry.type] = i;
    } else {
      collection_sections.push_back(i);
    }
  }
  const auto required = [&](SectionType type) -> StatusOr<size_t> {
    const auto slot = graph_sections[static_cast<size_t>(type)];
    if (!slot.has_value()) {
      return Bad(path, std::string("missing required section ") +
                           SectionName(static_cast<uint32_t>(type)));
    }
    return *slot;
  };

  // Graph metadata.
  ASM_ASSIGN_OR_RETURN(const size_t meta_index, required(SectionType::kGraphMeta));
  {
    const SectionEntry& entry = table[meta_index];
    const std::string label = SectionLabel(meta_index, entry.type);
    if (entry.bytes < sizeof(GraphMetaSection)) {
      return Bad(path, label + ": payload shorter than its fixed header");
    }
    GraphMetaSection meta;
    std::memcpy(&meta, bytes.data() + entry.offset, sizeof(meta));
    if (entry.bytes != sizeof(GraphMetaSection) + meta.name_bytes ||
        entry.count != meta.name_bytes) {
      return Bad(path, label + ": name length inconsistent with payload size");
    }
    if (meta.num_nodes > std::numeric_limits<NodeId>::max() - 1 ||
        meta.num_edges > std::numeric_limits<EdgeId>::max()) {
      return Bad(path, label + ": graph too large for 32-bit node/edge ids");
    }
    if (meta.weight_scheme > static_cast<uint32_t>(WeightScheme::kTrivalency)) {
      return Bad(path, label + ": unknown weight scheme " +
                           std::to_string(meta.weight_scheme));
    }
    parsed.num_nodes = meta.num_nodes;
    parsed.num_edges = meta.num_edges;
    parsed.scheme = static_cast<WeightScheme>(meta.weight_scheme);
    parsed.name.assign(
        reinterpret_cast<const char*>(bytes.data() + entry.offset + sizeof(meta)),
        meta.name_bytes);
    if (parsed.name.empty()) return Bad(path, label + ": empty graph name");
  }
  const uint64_t n = parsed.num_nodes;
  const uint64_t m = parsed.num_edges;

  // Array-section shapes. Everything here is table arithmetic — no payload
  // reads beyond the O(1) endpoint peeks at the bottom.
  const auto array_section = [&](SectionType type, uint64_t want_count,
                                 size_t elem_bytes) -> StatusOr<size_t> {
    ASM_ASSIGN_OR_RETURN(const size_t index, required(type));
    const SectionEntry& entry = table[index];
    if (entry.count != want_count || entry.bytes != want_count * elem_bytes) {
      return Bad(path, SectionLabel(index, entry.type) + ": expected " +
                           std::to_string(want_count) + " elements (" +
                           std::to_string(want_count * elem_bytes) + " bytes), found " +
                           std::to_string(entry.count) + " (" +
                           std::to_string(entry.bytes) + " bytes)");
    }
    return index;
  };
  ASM_ASSIGN_OR_RETURN(const size_t oo_index,
                       array_section(SectionType::kOutOffsets, n + 1, sizeof(EdgeId)));
  ASM_ASSIGN_OR_RETURN(const size_t ot_index,
                       array_section(SectionType::kOutTargets, m, sizeof(NodeId)));
  ASM_ASSIGN_OR_RETURN(const size_t op_index,
                       array_section(SectionType::kOutProbs, m, sizeof(double)));
  parsed.out_offsets = SpanAt<EdgeId>(bytes, table[oo_index].offset, n + 1);
  parsed.out_targets = SpanAt<NodeId>(bytes, table[ot_index].offset, m);
  parsed.out_probs = SpanAt<double>(bytes, table[op_index].offset, m);

  parsed.has_reverse = (header.flags & kFlagHasReverseCsr) != 0;
  for (const SectionType type : {SectionType::kInOffsets, SectionType::kInSources,
                                 SectionType::kInProbs, SectionType::kInEdgeIds}) {
    const bool present = graph_sections[static_cast<size_t>(type)].has_value();
    if (present != parsed.has_reverse) {
      return Bad(path, std::string("reverse CSR section ") +
                           SectionName(static_cast<uint32_t>(type)) +
                           (present ? " present but the header flag says omitted"
                                    : " missing but the header flag says present"));
    }
  }
  if (parsed.has_reverse) {
    ASM_ASSIGN_OR_RETURN(const size_t io_index,
                         array_section(SectionType::kInOffsets, n + 1, sizeof(EdgeId)));
    ASM_ASSIGN_OR_RETURN(const size_t is_index,
                         array_section(SectionType::kInSources, m, sizeof(NodeId)));
    ASM_ASSIGN_OR_RETURN(const size_t ip_index,
                         array_section(SectionType::kInProbs, m, sizeof(double)));
    ASM_ASSIGN_OR_RETURN(const size_t ie_index,
                         array_section(SectionType::kInEdgeIds, m, sizeof(EdgeId)));
    parsed.in_offsets = SpanAt<EdgeId>(bytes, table[io_index].offset, n + 1);
    parsed.in_sources = SpanAt<NodeId>(bytes, table[is_index].offset, m);
    parsed.in_probs = SpanAt<double>(bytes, table[ip_index].offset, m);
    parsed.in_edge_ids = SpanAt<EdgeId>(bytes, table[ie_index].offset, m);
  }

  // The digest the whole file must agree on, recomputed from table CRCs.
  const uint64_t digest =
      GraphDigest(n, m, table[oo_index].payload_crc, table[ot_index].payload_crc,
                  table[op_index].payload_crc);
  if (digest != header.graph_digest) {
    return Bad(path,
               "file header: graph digest does not match the section table "
               "(header and payload sections disagree about which graph this is)");
  }

  // O(1) payload endpoint peeks: enough to keep every CSR subspan inside
  // its arrays without an O(n) monotonicity walk.
  if (parsed.out_offsets.front() != 0 || parsed.out_offsets.back() != m) {
    return Bad(path, SectionLabel(oo_index, table[oo_index].type) +
                         ": endpoints do not describe " + std::to_string(m) + " edges");
  }
  if (parsed.has_reverse &&
      (parsed.in_offsets.front() != 0 || parsed.in_offsets.back() != m)) {
    return Bad(path, "section in_offsets: endpoints do not describe " +
                         std::to_string(m) + " edges");
  }

  // Collection sections: shape, then provenance (the certification
  // AdoptSealedPrefix's caller is responsible for). A section for another
  // graph is an error; one written under another stream seed, sampler
  // contract version or root rounding (the cache serves randomized rounding
  // only) is stale, not broken — it is skipped (never adopted, never
  // counted) so the graph sections stay usable.
  std::map<SamplerCacheKey, size_t> seen_keys;
  for (const size_t i : collection_sections) {
    const SectionEntry& entry = table[i];
    const std::string label = SectionLabel(i, entry.type);
    if (entry.bytes < sizeof(CollectionSectionHeader)) {
      return Bad(path, label + ": payload shorter than its fixed header");
    }
    CollectionSectionHeader ch;
    std::memcpy(&ch, bytes.data() + entry.offset, sizeof(ch));
    // Bound counts by the payload size before computing the expected size,
    // so a corrupt header cannot overflow the arithmetic below.
    if (ch.num_sets > entry.bytes / sizeof(uint64_t) ||
        ch.total_entries > entry.bytes / sizeof(NodeId)) {
      return Bad(path, label + ": set/entry counts exceed the payload size");
    }
    const uint64_t expected = sizeof(CollectionSectionHeader) +
                              (ch.num_sets + 1) * sizeof(uint64_t) +
                              ch.total_entries * sizeof(NodeId) +
                              ch.num_nodes * sizeof(uint32_t);
    if (entry.bytes != expected || entry.count != ch.num_sets) {
      return Bad(path, label + ": payload size inconsistent with its header counts");
    }
    if (ch.num_nodes != n) {
      return Bad(path, label + ": coverage is over " + std::to_string(ch.num_nodes) +
                           " nodes but the graph has " + std::to_string(n));
    }
    if (ch.kind > static_cast<uint8_t>(SamplerCacheKey::Kind::kMrr) ||
        ch.model > static_cast<uint8_t>(DiffusionModel::kLinearThreshold) ||
        ch.rounding > static_cast<uint8_t>(RootRounding::kCeil)) {
      return Bad(path, label + ": unknown kind/model/rounding");
    }
    if (ch.graph_digest != digest) {
      return Bad(path, label +
                           ": generated for a different graph (digest mismatch); "
                           "stale collection cannot warm-start this snapshot");
    }
    CollectionRecord record;
    record.key.kind = static_cast<SamplerCacheKey::Kind>(ch.kind);
    record.key.model = static_cast<DiffusionModel>(ch.model);
    record.key.eta = static_cast<NodeId>(ch.eta);
    uint64_t cursor = entry.offset + sizeof(CollectionSectionHeader);
    record.offsets = SpanAt<uint64_t>(bytes, cursor, ch.num_sets + 1);
    cursor += (ch.num_sets + 1) * sizeof(uint64_t);
    record.pool = SpanAt<NodeId>(bytes, cursor, ch.total_entries);
    cursor += ch.total_entries * sizeof(NodeId);
    record.coverage = SpanAt<uint32_t>(bytes, cursor, ch.num_nodes);
    // O(1) endpoint peeks (AdoptSealedPrefix hard-asserts these; a corrupt
    // file must fail soft here instead).
    if (record.offsets.front() != 0 || record.offsets.back() != ch.total_entries) {
      return Bad(path, label + ": set offsets do not describe " +
                           std::to_string(ch.total_entries) + " pool entries");
    }
    if (ch.stream_seed != kCacheStreamSeed ||
        ch.contract_version != kSamplerContractVersion ||
        ch.rounding != static_cast<uint8_t>(RootRounding::kRandomized)) {
      continue;  // stale: another stream family, traversal contract or rounding
    }
    if (const auto [it, inserted] = seen_keys.emplace(record.key, i); !inserted) {
      return Bad(path, label + ": duplicate collection key (also section " +
                           std::to_string(it->second) + ")");
    }
    parsed.collections.push_back(std::move(record));
  }

  if (verify == SnapshotVerify::kChecksums) {
    for (size_t i = 0; i < table.size(); ++i) {
      const SectionEntry& entry = table[i];
      const uint32_t crc = Crc32(bytes.data() + entry.offset, entry.bytes);
      if (crc != entry.payload_crc) {
        return Bad(path, SectionLabel(i, entry.type) + ": payload CRC mismatch");
      }
    }
  }
  return parsed;
}

/// Pre-rebuild validation of the forward CSR — only on the omit-reverse
/// path, where the counting sort is about to index by these values and an
/// out-of-range target would scribble outside its arrays. O(n + m), which
/// the rebuild already costs; reverse-carrying files skip both.
Status ValidateForwardCsr(const Parsed& parsed, const std::string& path) {
  const uint64_t n = parsed.num_nodes;
  for (uint64_t u = 0; u < n; ++u) {
    if (parsed.out_offsets[u] > parsed.out_offsets[u + 1]) {
      return Bad(path, "section out_offsets: not monotone at node " + std::to_string(u));
    }
  }
  for (const NodeId target : parsed.out_targets) {
    if (target >= n) {
      return Bad(path, "section out_targets: node id " + std::to_string(target) +
                           " out of range (graph has " + std::to_string(n) + " nodes)");
    }
  }
  return Status::OK();
}

class SnapshotWarmSource final : public CollectionWarmSource {
 public:
  SnapshotWarmSource(std::shared_ptr<const SnapshotPayload> payload,
                     std::vector<CollectionRecord> records)
      : payload_(std::move(payload)) {
    for (CollectionRecord& record : records) {
      entries_.emplace(record.key, record);
    }
  }

  std::optional<PersistedSealedPrefix> Find(const SamplerCacheKey& key) const override {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    PersistedSealedPrefix prefix;
    prefix.offsets = it->second.offsets;
    prefix.pool = it->second.pool;
    prefix.coverage = it->second.coverage;
    prefix.owner = payload_;
    return prefix;
  }

 private:
  std::shared_ptr<const SnapshotPayload> payload_;
  std::map<SamplerCacheKey, CollectionRecord> entries_;
};

bool PathSafeName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return name != "." && name != "..";
}

}  // namespace

StatusOr<GraphSnapshot> OpenSnapshot(const std::string& path, SnapshotVerify verify) {
  ASM_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  auto payload = std::make_shared<SnapshotPayload>();
  payload->file = std::move(file);
  ASM_ASSIGN_OR_RETURN(Parsed parsed, Parse(payload->file.bytes(), path, verify));

  GraphSnapshot snapshot;
  if (!parsed.has_reverse) {
    ASM_RETURN_NOT_OK(ValidateForwardCsr(parsed, path));
    BuildReverseCsr(parsed.out_offsets, parsed.out_targets, parsed.out_probs,
                    payload->rebuilt);
    parsed.in_offsets = payload->rebuilt.in_offsets;
    parsed.in_sources = payload->rebuilt.in_sources;
    parsed.in_probs = payload->rebuilt.in_probs;
    parsed.in_edge_ids = payload->rebuilt.in_edge_ids;
    snapshot.reverse_rebuilt = true;
  }
  snapshot.name = std::move(parsed.name);
  snapshot.weight_scheme = parsed.scheme;
  snapshot.graph_digest = parsed.header.graph_digest;
  snapshot.file_bytes = payload->file.size();
  snapshot.mapped = payload->file.is_mapped();
  snapshot.collection_sections = parsed.collections.size();
  if (!parsed.collections.empty()) {
    snapshot.warm = std::make_shared<SnapshotWarmSource>(payload,
                                                         std::move(parsed.collections));
  }
  snapshot.graph = DirectedGraph(
      static_cast<NodeId>(parsed.num_nodes), parsed.out_offsets, parsed.out_targets,
      parsed.out_probs, parsed.in_offsets, parsed.in_sources, parsed.in_probs,
      parsed.in_edge_ids, std::move(payload));
  return snapshot;
}

Status VerifySnapshotFile(const std::string& path) {
  ASM_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return Parse(file.bytes(), path, SnapshotVerify::kChecksums).status();
}

std::string SnapshotStore::PathFor(const std::string& name) const {
  return directory_ + "/" + name + ".asms";
}

StatusOr<GraphSnapshot> SnapshotStore::Load(const std::string& name) const {
  if (!PathSafeName(name)) {
    return Status::InvalidArgument("snapshot name '" + name + "' is not path-safe");
  }
  std::error_code ec;
  if (!std::filesystem::exists(PathFor(name), ec)) {
    return Status::NotFound("no snapshot named '" + name + "' in '" + directory_ + "'");
  }
  return OpenSnapshot(PathFor(name));
}

Status SnapshotStore::Save(const DirectedGraph& graph, const std::string& name,
                           WeightScheme scheme,
                           std::span<const SealedCollectionExport> collections,
                           const SnapshotWriteOptions& options) const {
  if (!PathSafeName(name)) {
    return Status::InvalidArgument("snapshot name '" + name + "' is not path-safe");
  }
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    return Status::IOError("create directory '" + directory_ + "': " + ec.message());
  }
  return WriteSnapshot(graph, name, scheme, collections, PathFor(name), options);
}

StatusOr<std::vector<std::string>> SnapshotStore::ListNames() const {
  std::vector<std::string> names;
  std::error_code ec;
  if (!std::filesystem::is_directory(directory_, ec)) return names;
  for (const auto& entry : std::filesystem::directory_iterator(directory_, ec)) {
    if (entry.path().extension() == ".asms") {
      names.push_back(entry.path().stem().string());
    }
  }
  if (ec) {
    return Status::IOError("list directory '" + directory_ + "': " + ec.message());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace asti::store
