// ASMS v1 — the on-disk snapshot format of the store (src/store/README.md
// has the layout diagram and compat rules).
//
// A snapshot is a single little-endian file: a fixed 64-byte header, a
// section table (one 48-byte entry per section), then the section payloads,
// each 64-byte aligned. Sections carry the graph metadata, the forward
// CSR, optionally the reverse CSR (flag bit 0; omitted for compact files
// and rebuilt on load), and any number of sealed RR-collection sections.
// Every payload has a CRC-32 recorded in its table entry; the header and
// table carry their own CRCs, so any flipped byte is attributable to one
// section.
//
// The layout is chosen so a loader can hand out zero-copy views: array
// payloads are stored exactly as the in-memory spans DirectedGraph /
// CollectionView consume (u32 offsets/targets/edge-ids, f64 probabilities,
// u64 collection offsets), at file offsets aligned for their element type.
// Structural validation — header, table, bounds, per-section size
// consistency — is O(sections), so registering a multi-GB snapshot costs
// page faults, not an O(m) parse; full checksum verification is a separate
// opt-in pass (SnapshotVerify::kChecksums).

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace asti::store {

// The format writes native-endian PODs and declares the file little-endian;
// big-endian hosts would need byte-swapping readers nobody has asked for.
static_assert(std::endian::native == std::endian::little,
              "ASMS snapshots are little-endian; this host is not");

inline constexpr char kSnapshotMagic[4] = {'A', 'S', 'M', 'S'};
inline constexpr uint32_t kSnapshotVersion = 1;

/// Payloads (and the section table) start at multiples of this, so every
/// mapped array is aligned for its element type and each section begins on
/// its own cache line.
inline constexpr uint64_t kSectionAlignment = 64;

/// FileHeader::flags bit 0: the reverse CSR sections (kInOffsets..
/// kInEdgeIds) are present. When clear, the loader rebuilds the reverse
/// CSR on open (O(n + m) counting sort) — the untangle-style
/// omit-index/rebuild-on-load trade for compact files.
inline constexpr uint32_t kFlagHasReverseCsr = 1u << 0;

enum class SectionType : uint32_t {
  kGraphMeta = 1,   // GraphMetaSection + name chars; count = name length
  kOutOffsets = 2,  // u32[n+1]
  kOutTargets = 3,  // u32[m]
  kOutProbs = 4,    // f64[m]
  kInOffsets = 5,   // u32[n+1]   (reverse group: all four or none)
  kInSources = 6,   // u32[m]
  kInProbs = 7,     // f64[m]
  kInEdgeIds = 8,   // u32[m]
  // One sealed RR/mRR collection: CollectionSectionHeader, then
  // u64 set_offsets[num_sets+1], u32 pool[total_entries],
  // u32 coverage[num_nodes]. count = num_sets.
  kRrCollection = 16,
};

struct FileHeader {
  char magic[4];           // "ASMS"
  uint32_t version;        // kSnapshotVersion
  uint64_t file_bytes;     // total file size; truncation check
  uint32_t section_count;
  uint32_t flags;          // kFlagHasReverseCsr | ...
  /// Identity of the graph payload: a mix of (n, m) and the forward-CSR
  /// section CRCs, computed at write time. Collection sections repeat it,
  /// so a collection pasted from a different graph's snapshot is refused
  /// in O(1) without hashing the arrays.
  uint64_t graph_digest;
  uint32_t table_crc;      // CRC-32 of the section table
  uint32_t header_crc;     // CRC-32 of this struct with header_crc = 0
  uint64_t reserved[3];
};
static_assert(sizeof(FileHeader) == 64);

struct SectionEntry {
  uint32_t type;        // SectionType
  uint32_t reserved0;
  uint64_t offset;      // from file start; multiple of kSectionAlignment
  uint64_t bytes;       // payload length
  uint64_t count;       // element count; semantics per SectionType
  uint32_t payload_crc; // CRC-32 of the payload bytes
  uint32_t reserved1;
  uint64_t reserved2;
};
static_assert(sizeof(SectionEntry) == 48);

/// Fixed head of a kGraphMeta payload; the graph name follows immediately.
struct GraphMetaSection {
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t weight_scheme;  // asti::WeightScheme
  uint32_t name_bytes;
};
static_assert(sizeof(GraphMetaSection) == 24);

/// Fixed head of a kRrCollection payload. The three arrays follow at the
/// offsets implied by the counts (set_offsets is 8-aligned because the
/// header is 64 bytes and the section itself is 64-aligned).
struct CollectionSectionHeader {
  uint8_t kind;      // SamplerCacheKey::Kind
  uint8_t model;     // DiffusionModel
  uint8_t rounding;  // RootRounding: written kRandomized; others are skipped
  uint8_t reserved0;
  uint32_t eta;
  /// Must equal kCacheStreamSeed for the section to be adopted:
  /// collections generated under a different stream family are not what
  /// cold generation would produce, so the loader skips them.
  uint64_t stream_seed;
  /// Must equal kSamplerContractVersion for the section to be adopted
  /// (see sampler_cache.h); a stale section is skipped.
  uint32_t contract_version;
  uint32_t reserved1;
  /// Must equal the file header's graph_digest at load.
  uint64_t graph_digest;
  uint64_t num_nodes;
  uint64_t num_sets;
  uint64_t total_entries;
  uint64_t reserved2;
};
static_assert(sizeof(CollectionSectionHeader) == 64);

/// Next multiple of kSectionAlignment.
inline constexpr uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

/// FileHeader::graph_digest: FNV-1a-style mix of the graph shape and the
/// forward-CSR payload CRCs. Both sides compute it from section-table
/// entries — the writer as it lays the table out, the loader from the
/// mapped table — so verifying a collection's provenance never touches the
/// array payloads.
inline constexpr uint64_t GraphDigest(uint64_t num_nodes, uint64_t num_edges,
                                      uint32_t out_offsets_crc, uint32_t out_targets_crc,
                                      uint32_t out_probs_crc) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(num_nodes);
  mix(num_edges);
  mix(out_offsets_crc);
  mix(out_targets_crc);
  mix(out_probs_crc);
  return h;
}

}  // namespace asti::store
