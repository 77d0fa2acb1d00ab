// Register-from-file: the bridge between the snapshot store (src/store/)
// and the serving catalog (graph_catalog.h).
//
// RegisterSnapshotFile opens an ASMS snapshot read-only (mmap + structural
// verification — O(section count), not O(m); the graph then reads in_probs
// once to derive its uniform in-probabilities) and installs the resulting
// zero-copy graph into the catalog, carrying the file's persisted sealed
// RR-collection prefixes as the entry's CollectionWarmSource. The first
// request against the registered graph therefore starts with a warm
// sampler cache: cache entries whose key the file covers adopt the
// persisted prefix instead of sampling from scratch, bit-identically to
// cold generation (the loader certifies stream seed, contract version, and
// graph digest before offering anything).
//
// Lifecycle: the mapping is pinned by the catalog entry, by every GraphRef
// handed out, and by every collection chunk adopted from it. Swapping or
// retiring the name while solves are in flight is safe — the file stays
// mapped until the last pin drops. SeedMinEngine::SaveSnapshot closes the
// loop: it exports a serving graph plus its current sealed cache prefixes
// back into a file this path can re-register after a restart.

#pragma once

#include <string>

#include "api/graph_catalog.h"
#include "util/status.h"

namespace asti {

/// Opens the ASMS snapshot at `path` and Registers it under its embedded
/// graph name. Registration cost is the snapshot's structural verification
/// (the header and section table) plus one read of in_offsets/in_probs,
/// which the graph constructor walks to derive uniform in-probabilities —
/// O(n + m) page reads, still no parse and no CSR rebuild. Forwards
/// OpenSnapshot's errors (InvalidArgument / IOError) and Register's
/// (FailedPrecondition for an already-registered name).
StatusOr<GraphRef> RegisterSnapshotFile(GraphCatalog& catalog, const std::string& path);

}  // namespace asti
