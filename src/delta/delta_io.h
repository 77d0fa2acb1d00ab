// ASMD v1 — the binary on-disk form of an EdgeDelta, styled after the
// snapshot store's ASMS format: a fixed little-endian header with its own
// CRC, then a flat array of fixed-width op records guarded by a payload
// CRC. Any flipped byte is caught and attributed (header vs ops) before a
// single op is trusted. The header carries the EdgeDelta's own
// forward-CSR digests (base_digest / result_digest).

#pragma once

#include <cstdint>
#include <string>

#include "delta/edge_delta.h"
#include "util/status.h"

namespace asti {

inline constexpr char kDeltaMagic[4] = {'A', 'S', 'M', 'D'};
inline constexpr uint32_t kDeltaVersion = 1;

struct DeltaFileHeader {
  char magic[4];             // "ASMD"
  uint32_t version;          // kDeltaVersion
  uint64_t op_count;
  uint64_t base_digest;      // ForwardCsrDigest of the base graph (0 = unbound)
  uint64_t result_digest;    // expected ForwardCsrDigest after apply (0 = unchecked)
  uint64_t base_store_digest;  // unused: written as 0, ignored on read
  uint32_t ops_crc;          // CRC-32 of the op records
  uint32_t header_crc;       // CRC-32 of this struct with header_crc = 0
  uint64_t reserved[2];
};
static_assert(sizeof(DeltaFileHeader) == 64);

struct DeltaOpRecord {
  uint32_t kind;  // DeltaOpKind
  uint32_t source;
  uint32_t target;
  uint32_t reserved;
  double probability;
};
static_assert(sizeof(DeltaOpRecord) == 24);

/// Writes `delta` to `path` (tmp + rename, like the snapshot writer).
/// The batch is validated first.
Status WriteDeltaBinary(const EdgeDelta& delta, const std::string& path);

/// Reads an ASMD v1 file. InvalidArgument for truncation, bad magic or
/// version, CRC mismatches, or a batch that fails ValidateDelta; IOError
/// for filesystem failures.
StatusOr<EdgeDelta> ReadDeltaBinary(const std::string& path);

/// Loads a delta from either serialization: sniffs the ASMD magic and
/// dispatches to ReadDeltaBinary or ParseDeltaText. The asm_tool
/// --apply-delta entry point.
StatusOr<EdgeDelta> LoadDeltaFile(const std::string& path);

}  // namespace asti
