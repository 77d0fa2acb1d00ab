#include "store/snapshot_writer.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "store/snapshot_format.h"
#include "util/check.h"
#include "util/crc32.h"

namespace asti::store {

namespace {

template <class T>
std::span<const std::byte> Bytes(std::span<const T> data) {
  return std::as_bytes(data);
}

std::span<const std::byte> Bytes(const void* data, size_t bytes) {
  return {static_cast<const std::byte*>(data), bytes};
}

/// One pending section: payload described as pieces to concatenate, so
/// graph arrays are written straight from their spans with no copy.
struct Section {
  SectionType type;
  uint64_t count;
  std::vector<std::span<const std::byte>> pieces;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto piece : pieces) total += piece.size();
    return total;
  }
  uint32_t Crc() const {
    uint32_t crc = 0;
    for (const auto piece : pieces) crc = Crc32(piece.data(), piece.size(), crc);
    return crc;
  }
};

/// A collection prefix re-flattened from its (possibly multi-chunk) view:
/// contiguous offsets and pool the section can span. unique_ptr'd so
/// addresses stay stable while sections reference them.
struct FlatCollection {
  CollectionSectionHeader header;
  std::vector<uint64_t> offsets;
  std::vector<NodeId> pool;
};

std::unique_ptr<FlatCollection> Flatten(const SealedCollectionExport& exported) {
  auto flat = std::make_unique<FlatCollection>();
  const CollectionView& view = exported.view;
  const size_t num_sets = view.NumSets();
  flat->offsets.reserve(num_sets + 1);
  flat->offsets.push_back(0);
  flat->pool.reserve(view.TotalEntries());
  for (size_t i = 0; i < num_sets; ++i) {
    const std::span<const NodeId> set = view.Set(i);
    flat->pool.insert(flat->pool.end(), set.begin(), set.end());
    flat->offsets.push_back(flat->pool.size());
  }
  CollectionSectionHeader& h = flat->header;
  std::memset(&h, 0, sizeof(h));
  h.kind = static_cast<uint8_t>(exported.key.kind);
  h.model = static_cast<uint8_t>(exported.key.model);
  h.rounding = static_cast<uint8_t>(RootRounding::kRandomized);
  h.eta = exported.key.eta;
  h.stream_seed = kCacheStreamSeed;
  h.contract_version = kSamplerContractVersion;
  h.num_nodes = view.num_nodes();
  h.num_sets = num_sets;
  h.total_entries = flat->pool.size();
  // graph_digest is stamped by the caller once the forward CRCs are known.
  return flat;
}

class FileWriter {
 public:
  explicit FileWriter(std::string path)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "wb")) {}
  ~FileWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }

  bool ok() const { return file_ != nullptr; }

  Status Write(std::span<const std::byte> bytes) {
    if (!bytes.empty() && std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      return Error("write");
    }
    position_ += bytes.size();
    return Status::OK();
  }

  Status PadTo(uint64_t offset) {
    ASM_CHECK(offset >= position_);
    static constexpr std::byte kZeros[kSectionAlignment] = {};
    while (position_ < offset) {
      const size_t chunk =
          std::min<uint64_t>(offset - position_, sizeof(kZeros));
      ASM_RETURN_NOT_OK(Write({kZeros, chunk}));
    }
    return Status::OK();
  }

  Status Close() {
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) return Error("close");
    return Status::OK();
  }

  Status Error(const std::string& op) const {
    return Status::IOError(op + " '" + path_ + "': " + std::strerror(errno));
  }

 private:
  std::string path_;
  std::FILE* file_;
  uint64_t position_ = 0;
};

}  // namespace

Status WriteSnapshot(const DirectedGraph& graph, const std::string& name,
                     WeightScheme scheme,
                     std::span<const SealedCollectionExport> collections,
                     const std::string& path, const SnapshotWriteOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("snapshot graph name must be non-empty");
  }

  // --- Assemble sections in file order. ---------------------------------
  GraphMetaSection meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.num_nodes = graph.NumNodes();
  meta.num_edges = graph.NumEdges();
  meta.weight_scheme = static_cast<uint32_t>(scheme);
  meta.name_bytes = static_cast<uint32_t>(name.size());

  std::vector<Section> sections;
  sections.push_back(Section{SectionType::kGraphMeta, name.size(),
                             {Bytes(&meta, sizeof(meta)), Bytes(name.data(), name.size())}});
  sections.push_back(Section{SectionType::kOutOffsets, graph.OutOffsets().size(),
                             {Bytes(graph.OutOffsets())}});
  sections.push_back(Section{SectionType::kOutTargets, graph.OutTargets().size(),
                             {Bytes(graph.OutTargets())}});
  sections.push_back(
      Section{SectionType::kOutProbs, graph.OutProbs().size(), {Bytes(graph.OutProbs())}});
  if (options.include_reverse_csr) {
    sections.push_back(Section{SectionType::kInOffsets, graph.InOffsets().size(),
                               {Bytes(graph.InOffsets())}});
    sections.push_back(Section{SectionType::kInSources, graph.InSources().size(),
                               {Bytes(graph.InSources())}});
    sections.push_back(
        Section{SectionType::kInProbs, graph.InProbs().size(), {Bytes(graph.InProbs())}});
    sections.push_back(Section{SectionType::kInEdgeIds, graph.InEdgeIdsFlat().size(),
                               {Bytes(graph.InEdgeIdsFlat())}});
  }

  // The digest binds collection sections to THIS graph payload; compute it
  // from the forward CRCs before flattening stamps it into each header.
  const uint32_t out_offsets_crc = sections[1].Crc();
  const uint32_t out_targets_crc = sections[2].Crc();
  const uint32_t out_probs_crc = sections[3].Crc();
  const uint64_t digest = GraphDigest(graph.NumNodes(), graph.NumEdges(), out_offsets_crc,
                                      out_targets_crc, out_probs_crc);

  std::vector<std::unique_ptr<FlatCollection>> flats;
  flats.reserve(collections.size());
  for (const SealedCollectionExport& exported : collections) {
    if (exported.view.NumSets() == 0) continue;
    flats.push_back(Flatten(exported));
    FlatCollection& flat = *flats.back();
    flat.header.graph_digest = digest;
    sections.push_back(Section{
        SectionType::kRrCollection,
        flat.header.num_sets,
        {Bytes(&flat.header, sizeof(flat.header)),
         Bytes(std::span<const uint64_t>(flat.offsets)),
         Bytes(std::span<const NodeId>(flat.pool)),
         Bytes(std::span<const uint32_t>(exported.view.CoverageCounts()))},
    });
  }

  // --- Lay out the file and build the table. ----------------------------
  std::vector<SectionEntry> table(sections.size());
  uint64_t cursor =
      AlignUp(sizeof(FileHeader) + sections.size() * sizeof(SectionEntry));
  for (size_t i = 0; i < sections.size(); ++i) {
    SectionEntry& entry = table[i];
    std::memset(&entry, 0, sizeof(entry));
    entry.type = static_cast<uint32_t>(sections[i].type);
    entry.offset = cursor;
    entry.bytes = sections[i].TotalBytes();
    entry.count = sections[i].count;
    entry.payload_crc = sections[i].Crc();
    cursor = AlignUp(entry.offset + entry.bytes);
  }
  const uint64_t file_bytes =
      table.empty() ? sizeof(FileHeader)
                    : table.back().offset + table.back().bytes;

  FileHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.file_bytes = file_bytes;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.flags = options.include_reverse_csr ? kFlagHasReverseCsr : 0;
  header.graph_digest = digest;
  header.table_crc = Crc32(table.data(), table.size() * sizeof(SectionEntry));
  header.header_crc = Crc32(&header, sizeof(header));  // header_crc still 0 here

  // --- Write to a temp file, then rename into place. --------------------
  const std::string tmp_path = path + ".tmp";
  {
    FileWriter writer(tmp_path);
    if (!writer.ok()) return writer.Error("open");
    ASM_RETURN_NOT_OK(writer.Write(Bytes(&header, sizeof(header))));
    ASM_RETURN_NOT_OK(
        writer.Write(Bytes(table.data(), table.size() * sizeof(SectionEntry))));
    for (size_t i = 0; i < sections.size(); ++i) {
      ASM_RETURN_NOT_OK(writer.PadTo(table[i].offset));
      for (const auto piece : sections[i].pieces) {
        ASM_RETURN_NOT_OK(writer.Write(piece));
      }
    }
    ASM_RETURN_NOT_OK(writer.Close());
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status status =
        Status::IOError("rename '" + tmp_path + "' -> '" + path + "': " + std::strerror(errno));
    std::remove(tmp_path.c_str());
    return status;
  }
  return Status::OK();
}

}  // namespace asti::store
