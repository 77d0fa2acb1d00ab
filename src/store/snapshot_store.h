// ASMS snapshot loading: mmap a snapshot file and serve zero-copy views.
//
// OpenSnapshot maps a file written by WriteSnapshot (snapshot_writer.h)
// and hands back a GraphSnapshot: a span-backed DirectedGraph whose CSR
// arrays point straight into the mapping, plus a CollectionWarmSource over
// any persisted sealed RR-collection sections, for GraphCatalog
// registration (api/snapshot_serving.h wires the two together). The
// mapping is owned by a shared payload that every graph copy, collection
// chunk, and warm-source prefix pins — retiring the catalog entry while a
// solve is mid-flight keeps the mapping alive until the last view drops.
//
// Verification is two-tier (SnapshotVerify):
//
//   * kStructural (default) — O(sections), NOT O(file): header and
//     section-table CRCs, per-section bounds/alignment/shape consistency,
//     graph-digest recomputation from table CRCs, collection provenance
//     (stream seed, contract version, digest) and O(1) payload endpoint
//     peeks. Verification itself is independent of m; the one O(m) read
//     of an open is DirectedGraph deriving each node's uniform
//     in-probability from in_offsets/in_probs (graph/graph.h). It TRUSTS
//     the payload bytes themselves (no bit-rot scan); a snapshot you just
//     wrote, or one on trusted storage, needs nothing more.
//   * kChecksums — structural plus a full per-section CRC pass over every
//     payload byte. Any flipped bit anywhere in the file is caught and
//     attributed to its section. Use for untrusted/long-archived files
//     (asm_tool --verify-snapshot) and corruption tests.
//
// Either way, a malformed file yields a Status naming the offending
// section — never UB.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "sampling/sampler_cache.h"
#include "store/snapshot_writer.h"
#include "util/status.h"

namespace asti::store {

enum class SnapshotVerify {
  kStructural,  // O(sections) shape + CRC-of-metadata checks (default)
  kChecksums,   // structural + full payload CRC pass (reads every byte)
};

/// A loaded snapshot. `graph` (and every copy of it) and `warm` pin the
/// underlying mapping; the file stays resident until the last ref drops.
struct GraphSnapshot {
  DirectedGraph graph;
  std::string name;
  WeightScheme weight_scheme = WeightScheme::kWeightedCascade;
  /// The file's graph digest (header + all collection sections agree).
  uint64_t graph_digest = 0;
  /// Persisted sealed collection prefixes, certified for warm start; null
  /// when the file carries no current collection sections. Sections written
  /// under another stream seed or sampler contract version are skipped:
  /// neither adopted nor counted in `collection_sections`.
  std::shared_ptr<const CollectionWarmSource> warm;
  size_t collection_sections = 0;
  uint64_t file_bytes = 0;
  /// True when the file omitted the reverse CSR and it was rebuilt on load
  /// (O(n + m) counting sort — identical arrays to a persisted reverse).
  bool reverse_rebuilt = false;
  /// True when the bytes are mmap'd (false: heap-read fallback).
  bool mapped = false;
};

/// Maps `path` and validates it at the requested tier. InvalidArgument for
/// format violations (message names the offending section), IOError for
/// filesystem failures.
StatusOr<GraphSnapshot> OpenSnapshot(const std::string& path,
                                     SnapshotVerify verify = SnapshotVerify::kStructural);

/// Full-checksum validation of a snapshot file without constructing any
/// views (asm_tool --verify-snapshot). OK iff OpenSnapshot(path,
/// kChecksums) would succeed.
Status VerifySnapshotFile(const std::string& path);

/// A directory of snapshots, one file per graph name (`<dir>/<name>.asms`).
/// Thin naming convention over WriteSnapshot/OpenSnapshot — the unit the
/// serving layer points --snapshot-dir at.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::string directory) : directory_(std::move(directory)) {}

  /// `<dir>/<name>.asms`. Names must be non-empty and path-safe
  /// ([A-Za-z0-9._-]); Save/Load reject anything else.
  std::string PathFor(const std::string& name) const;

  /// OpenSnapshot of `<dir>/<name>.asms` at the structural tier; NotFound
  /// when the directory holds no such file.
  StatusOr<GraphSnapshot> Load(const std::string& name) const;

  /// Writes `<dir>/<name>.asms` (creating the directory if needed),
  /// overwriting atomically via rename.
  Status Save(const DirectedGraph& graph, const std::string& name, WeightScheme scheme,
              std::span<const SealedCollectionExport> collections = {},
              const SnapshotWriteOptions& options = {}) const;

  /// Names of every `*.asms` file in the directory, sorted. A missing
  /// directory lists as empty (it is created lazily by Save).
  StatusOr<std::vector<std::string>> ListNames() const;

 private:
  std::string directory_;
};

}  // namespace asti::store
