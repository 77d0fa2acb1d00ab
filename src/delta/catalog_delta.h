// SwapWithDelta — epoch minting at the serving boundary: resolve a
// catalog name, apply an EdgeDelta to its current snapshot, and hot-swap
// the minted graph in as the next epoch.
//
// In-flight requests are untouched by construction: they pinned their
// GraphRef (and with it the old epoch's SamplerCache) at admission, so
// they complete bit-identically on the old snapshot while new requests
// resolve the minted epoch with a fresh cache. Warm-start collections are never carried across (their sets are a pure
// function of the old snapshot).

#pragma once

#include <string>

#include "api/graph_catalog.h"
#include "delta/apply.h"
#include "delta/edge_delta.h"
#include "util/status.h"

namespace asti {

/// What SwapWithDelta did, for tooling and the churn bench.
struct DeltaSwapResult {
  /// The minted epoch's ref (new requests resolve this).
  GraphRef ref;
  DeltaApplyStats stats;
  /// ForwardCsrDigest of the minted graph.
  uint64_t minted_digest = 0;
  /// Wall seconds minting the graph (ApplyDelta + digest) — work
  /// done before the catalog is touched, off the serving path.
  double apply_seconds = 0.0;
  /// Wall seconds inside GraphCatalog::Swap — the only window competing
  /// with concurrent Get()s (the swap-blackout the churn bench reports).
  double swap_seconds = 0.0;
};

/// Applies `delta` to the current snapshot behind `name` and swaps the
/// minted graph in (epoch bump). NotFound for unknown names; forwards
/// ApplyDelta's InvalidArgument on malformed or inapplicable batches, in
/// which case the catalog is untouched.
StatusOr<DeltaSwapResult> SwapWithDelta(GraphCatalog& catalog, const std::string& name,
                                        const EdgeDelta& delta);

}  // namespace asti
