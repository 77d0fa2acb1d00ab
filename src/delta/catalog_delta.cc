#include "delta/catalog_delta.h"

#include <memory>
#include <utility>

#include "util/timer.h"

namespace asti {

StatusOr<DeltaSwapResult> SwapWithDelta(GraphCatalog& catalog, const std::string& name,
                                        const EdgeDelta& delta) {
  ASM_ASSIGN_OR_RETURN(const GraphRef base, catalog.Get(name));

  DeltaSwapResult result;
  WallTimer apply_timer;
  ASM_ASSIGN_OR_RETURN(DirectedGraph minted,
                       ApplyDelta(base.graph(), delta, &result.stats));
  result.minted_digest = ForwardCsrDigest(minted);
  auto snapshot = std::make_shared<const DirectedGraph>(std::move(minted));
  result.apply_seconds = apply_timer.Seconds();

  WallTimer swap_timer;
  ASM_ASSIGN_OR_RETURN(result.ref,
                       catalog.Swap(name, std::move(snapshot), base.weight_scheme()));
  result.swap_seconds = swap_timer.Seconds();
  return result;
}

}  // namespace asti
