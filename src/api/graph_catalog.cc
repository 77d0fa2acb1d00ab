#include "api/graph_catalog.h"

#include <utility>

namespace asti {

namespace {

Status CheckName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("graph name must be non-empty");
  }
  return Status::OK();
}

// The metadata block is built ONCE per Register/Swap and shared by every
// ref for that epoch, so Get() under the lock copies two shared_ptrs and
// never the name string.
GraphRef MakeRef(const std::string& name, uint64_t epoch,
                 std::shared_ptr<const DirectedGraph> snapshot, WeightScheme scheme,
                 std::shared_ptr<const CollectionWarmSource> warm) {
  auto meta = std::make_shared<GraphMeta>();
  meta->name = name;
  meta->epoch = epoch;
  meta->num_nodes = snapshot->NumNodes();
  meta->num_edges = snapshot->NumEdges();
  meta->weight_scheme = scheme;
  meta->warm_collections = std::move(warm);
  GraphRef ref;
  ref.snapshot = std::move(snapshot);
  ref.meta = std::move(meta);
  return ref;
}

}  // namespace

StatusOr<GraphRef> GraphCatalog::Register(const std::string& name,
                                          std::shared_ptr<const DirectedGraph> snapshot,
                                          WeightScheme scheme,
                                          std::shared_ptr<const CollectionWarmSource> warm) {
  ASM_RETURN_NOT_OK(CheckName(name));
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot register a null graph snapshot");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(name) > 0) {
    return Status::FailedPrecondition("graph '" + name +
                                      "' is already registered; use Swap to replace it");
  }
  GraphRef ref = MakeRef(name, /*epoch=*/1, std::move(snapshot), scheme, std::move(warm));
  entries_.emplace(name, ref);
  ++version_;
  return ref;
}

StatusOr<GraphRef> GraphCatalog::Register(const std::string& name, DirectedGraph graph,
                                          WeightScheme scheme) {
  return Register(name, std::make_shared<const DirectedGraph>(std::move(graph)), scheme);
}

StatusOr<GraphRef> GraphCatalog::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("no graph named '" + name + "' in the catalog");
  }
  return it->second;
}

StatusOr<GraphRef> GraphCatalog::Swap(const std::string& name,
                                      std::shared_ptr<const DirectedGraph> snapshot,
                                      WeightScheme scheme,
                                      std::shared_ptr<const CollectionWarmSource> warm) {
  ASM_RETURN_NOT_OK(CheckName(name));
  if (snapshot == nullptr) {
    return Status::InvalidArgument("cannot swap in a null graph snapshot");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("cannot swap unregistered graph '" + name +
                            "'; Register it first");
  }
  // The old snapshot is released here (the map held one pin); refs already
  // handed out keep it alive until they drop.
  it->second = MakeRef(name, it->second.epoch() + 1, std::move(snapshot), scheme,
                       std::move(warm));
  ++version_;
  return it->second;
}

StatusOr<GraphRef> GraphCatalog::Swap(const std::string& name, DirectedGraph graph,
                                      WeightScheme scheme) {
  return Swap(name, std::make_shared<const DirectedGraph>(std::move(graph)), scheme);
}

Status GraphCatalog::Retire(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("cannot retire unregistered graph '" + name + "'");
  }
  entries_.erase(it);
  ++version_;
  return Status::OK();
}

std::vector<GraphRef> GraphCatalog::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GraphRef> refs;
  refs.reserve(entries_.size());
  for (const auto& [name, ref] : entries_) refs.push_back(ref);
  return refs;
}

size_t GraphCatalog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

uint64_t GraphCatalog::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

StatusOr<GraphRef> RegisterSurrogate(GraphCatalog& catalog, DatasetId id, double scale,
                                     uint64_t seed, WeightScheme scheme) {
  auto graph = MakeSurrogateDataset(id, scale, seed, scheme);
  if (!graph.ok()) return graph.status();
  return catalog.Register(CanonicalDatasetName(id), std::move(graph).value(), scheme);
}

}  // namespace asti
