// GraphCatalog — thread-safe registry of immutable, ref-counted graph
// snapshots, the multi-graph serving front of src/api/.
//
// The paper frames adaptive seed minimization as a query over
// (graph, model, η, ε); a resident service must therefore serve queries
// against *many* named datasets concurrently and replace any of them
// without downtime. The catalog holds one entry per name; each entry is a
// GraphRef: a `shared_ptr<const DirectedGraph>` snapshot plus metadata
// (name, epoch, node/edge counts, the weight scheme the snapshot was
// built with). Snapshots are immutable by construction — nothing in the
// library mutates a DirectedGraph after build — so a GraphRef handed out
// by Get() stays valid forever, pinned by its shared_ptr, no matter what
// the catalog does afterwards:
//
//   * Register(name, snapshot)  — adds a new name at epoch 1; a second
//     Register of the same name is FailedPrecondition (use Swap).
//   * Get(name)                 — resolves a name to its current GraphRef
//     (NotFound for unknown names). Callers that hold the ref "pin" the
//     snapshot: in-flight requests keep executing on it bit-identically
//     even if the name is swapped or retired mid-run.
//   * Swap(name, snapshot)      — replaces the snapshot behind a name and
//     bumps its epoch; subsequent Get()s observe the new epoch, old refs
//     keep their old snapshot alive until released (hot-swap without
//     invalidating executing work).
//   * Retire(name)              — removes the name; the snapshot is freed
//     when the last outstanding GraphRef drops.
//
// Every member is safe to call concurrently (one mutex over the name
// table; snapshot payloads are never touched under the lock beyond the
// shared_ptr copy). The catalog also carries a monotonic version counter,
// bumped by every successful mutation, so engines can cheaply detect "the
// catalog changed since I last cached per-graph state".

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/status.h"

namespace asti {

class CollectionWarmSource;  // sampling/sampler_cache.h

/// Immutable serving metadata for one (name, epoch) snapshot, built once
/// at Register/Swap and shared by every GraphRef handed out for that
/// epoch. Sharing (instead of copying the strings into each ref) is what
/// keeps Get() to two shared_ptr copies under the catalog lock — the
/// string copies used to show up in the mixed-workload bench at high
/// client counts.
struct GraphMeta {
  std::string name;
  /// 1 on first Register; bumped by every Swap of this name. A result
  /// produced against epoch e is reproducible against that epoch's
  /// snapshot only — SolveResult records (graph_name, graph_epoch).
  uint64_t epoch = 0;
  NodeId num_nodes = 0;
  EdgeId num_edges = 0;
  /// The diffusion-weight scheme the snapshot's edge probabilities were
  /// built with (informational; surfaced by --list-graphs style tooling).
  WeightScheme weight_scheme = WeightScheme::kWeightedCascade;
  /// Persisted sealed RR-collection prefixes shipped with the snapshot
  /// (null for graphs registered from memory). The engine hands this to
  /// the epoch's SamplerCache so new serving state starts warm from disk.
  std::shared_ptr<const CollectionWarmSource> warm_collections;
};

/// One immutable graph snapshot plus its serving metadata. Value type:
/// copying a GraphRef copies two shared_ptrs (cheap) and extends the pin.
struct GraphRef {
  std::shared_ptr<const DirectedGraph> snapshot;
  std::shared_ptr<const GraphMeta> meta;

  bool valid() const { return snapshot != nullptr; }
  const DirectedGraph& graph() const { return *snapshot; }
  const std::string& name() const { return meta->name; }
  uint64_t epoch() const { return meta->epoch; }
  NodeId num_nodes() const { return meta->num_nodes; }
  EdgeId num_edges() const { return meta->num_edges; }
  WeightScheme weight_scheme() const { return meta->weight_scheme; }
  const std::shared_ptr<const CollectionWarmSource>& warm_collections() const {
    return meta->warm_collections;
  }
};

class GraphCatalog {
 public:
  GraphCatalog() = default;
  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Adds `snapshot` under `name` at epoch 1. InvalidArgument for an empty
  /// name or null snapshot; FailedPrecondition if the name is already
  /// registered (replacement must be an explicit Swap). Returns the
  /// registered ref. `warm` (nullable) attaches persisted sealed
  /// RR-collection prefixes — the snapshot-store registration path.
  StatusOr<GraphRef> Register(const std::string& name,
                              std::shared_ptr<const DirectedGraph> snapshot,
                              WeightScheme scheme = WeightScheme::kWeightedCascade,
                              std::shared_ptr<const CollectionWarmSource> warm = nullptr);

  /// Convenience overload taking the graph by value (moves it into a
  /// shared snapshot) — the common "I just built this graph" path.
  StatusOr<GraphRef> Register(const std::string& name, DirectedGraph graph,
                              WeightScheme scheme = WeightScheme::kWeightedCascade);

  /// Current ref for `name`, or NotFound. The returned ref pins its
  /// snapshot for as long as the caller holds it.
  StatusOr<GraphRef> Get(const std::string& name) const;

  /// Replaces the snapshot behind an existing name, bumping its epoch.
  /// NotFound for unregistered names, InvalidArgument for a null snapshot.
  /// Outstanding refs to the previous epoch stay valid. Returns the new ref.
  StatusOr<GraphRef> Swap(const std::string& name,
                          std::shared_ptr<const DirectedGraph> snapshot,
                          WeightScheme scheme = WeightScheme::kWeightedCascade,
                          std::shared_ptr<const CollectionWarmSource> warm = nullptr);

  /// By-value Swap convenience, mirroring Register.
  StatusOr<GraphRef> Swap(const std::string& name, DirectedGraph graph,
                          WeightScheme scheme = WeightScheme::kWeightedCascade);

  /// Removes `name` from the catalog (NotFound if absent). The snapshot is
  /// freed when the last outstanding GraphRef releases it. Re-registering
  /// the name later starts again at epoch 1.
  Status Retire(const std::string& name);

  /// Snapshot of every registered ref, in name order.
  std::vector<GraphRef> List() const;

  size_t size() const;

  /// Monotonic mutation counter: bumped by every successful Register /
  /// Swap / Retire. Engines compare it against the value they last saw to
  /// decide whether cached per-graph state needs revalidation.
  uint64_t version() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, GraphRef> entries_;
  uint64_t version_ = 0;
};

/// Non-owning snapshot view over a caller-owned graph, for synchronous
/// scoped serving (the bench/test harnesses): the caller guarantees
/// `graph` outlives every ref derived from it. Hot-swap / retire safety
/// beyond that scope requires owning snapshots — production registration
/// should move the graph into the catalog instead.
inline std::shared_ptr<const DirectedGraph> BorrowSnapshot(const DirectedGraph& graph) {
  return std::shared_ptr<const DirectedGraph>(std::shared_ptr<const DirectedGraph>(),
                                              &graph);
}

/// Builds the surrogate for `id` (deterministic in (id, scale, seed)) and
/// registers it under its canonical lowercase name ("nethept", ...).
/// Forwards Register's errors (e.g. FailedPrecondition when the name is
/// already present).
StatusOr<GraphRef> RegisterSurrogate(GraphCatalog& catalog, DatasetId id,
                                     double scale = 1.0, uint64_t seed = 7,
                                     WeightScheme scheme = WeightScheme::kWeightedCascade);

}  // namespace asti
