#include "api/snapshot_serving.h"

#include <memory>
#include <utility>

#include "store/snapshot_store.h"

namespace asti {

StatusOr<GraphRef> RegisterSnapshotFile(GraphCatalog& catalog, const std::string& path) {
  ASM_ASSIGN_OR_RETURN(store::GraphSnapshot snapshot, store::OpenSnapshot(path));
  // The DirectedGraph is spans + the payload keepalive; moving it into the
  // catalog's shared snapshot transfers the mapping pin, no array copies.
  return catalog.Register(snapshot.name,
                          std::make_shared<const DirectedGraph>(std::move(snapshot.graph)),
                          snapshot.weight_scheme, std::move(snapshot.warm));
}

}  // namespace asti
