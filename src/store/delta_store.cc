#include "store/delta_store.h"

#include <filesystem>
#include <utility>

#include "delta/delta_io.h"

namespace asti::store {

std::string DeltaPathFor(const SnapshotStore& store, const std::string& name) {
  return store.directory() + "/" + name + ".delta.asms";
}

bool HasDelta(const SnapshotStore& store, const std::string& name) {
  std::error_code ec;
  return std::filesystem::exists(DeltaPathFor(store, name), ec);
}

Status SaveDelta(const SnapshotStore& store, const std::string& name, EdgeDelta delta) {
  // Load validates the name is path-safe and the base exists; the trial
  // apply inside StampDigests validates the batch against the base graph.
  ASM_ASSIGN_OR_RETURN(const GraphSnapshot base, store.Load(name));
  ASM_RETURN_NOT_OK(StampDigests(base.graph, delta));
  return WriteDeltaBinary(delta, DeltaPathFor(store, name), base.graph_digest);
}

Status DropDelta(const SnapshotStore& store, const std::string& name) {
  std::error_code ec;
  std::filesystem::remove(DeltaPathFor(store, name), ec);
  if (ec) {
    return Status::IOError("remove '" + DeltaPathFor(store, name) + "': " + ec.message());
  }
  return Status::OK();
}

StatusOr<DeltaSnapshot> LoadSnapshotWithDelta(const SnapshotStore& store,
                                              const std::string& name,
                                              SnapshotVerify verify) {
  DeltaSnapshot result;
  ASM_ASSIGN_OR_RETURN(result.base, store.Load(name, verify));
  if (!HasDelta(store, name)) {
    return Status::NotFound("no staged delta for snapshot '" + name + "' in '" +
                            store.directory() + "'");
  }
  uint64_t base_store_digest = 0;
  ASM_ASSIGN_OR_RETURN(result.delta,
                       ReadDeltaBinary(DeltaPathFor(store, name), &base_store_digest));
  if (base_store_digest != 0 && base_store_digest != result.base.graph_digest) {
    return Status::InvalidArgument(
        "delta '" + DeltaPathFor(store, name) + "' is staged against base digest " +
        std::to_string(base_store_digest) + " but '" + name + ".asms' has digest " +
        std::to_string(result.base.graph_digest) +
        " (base snapshot replaced since the delta was staged?)");
  }
  ASM_ASSIGN_OR_RETURN(result.minted,
                       ApplyDelta(result.base.graph, result.delta, &result.stats));
  result.minted_digest = ForwardCsrDigest(result.minted);
  return result;
}

}  // namespace asti::store
