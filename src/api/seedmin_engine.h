// SeedMinEngine — the one façade over every seed-minimization algorithm,
// serving many catalog graphs from one resident process.
//
// A resident engine fronts a GraphCatalog (many named, immutable,
// hot-swappable graph snapshots), owns one shared ThreadPool and an
// admission-controlled serving core, and serves uniform SolveRequests:
// per-request graph routing (request.graph resolved against the catalog
// at admission — Status::NotFound for unknown names, InvalidArgument for
// requests that leave the name empty), validation at the API boundary
// (Status::InvalidArgument instead of CHECK-crashes), selector
// construction through AlgorithmRegistry, the §6 evaluation protocol
// (hidden realizations shared across algorithms for a given seed), and
// per-request deadlines/cancellation (Status::DeadlineExceeded /
// Status::Cancelled).
//
// Multi-tenancy model: the request pins its GraphRef snapshot from
// admission to resolution, so a concurrent GraphCatalog::Swap (new epoch)
// or Retire never invalidates executing work — requests admitted before
// the swap complete bit-identically on their pinned old-epoch snapshot.
// Per-graph serving state (lazily built scratch reused across requests,
// keyed by (name, epoch) so a swap starts fresh) and per-graph
// inflight/completed accounting live behind one engine-wide pool and one
// admission queue; admission_stats() reports both the queue's per-outcome
// counters and the per-graph serving counters.
//
// Concurrency model: Solve runs on the caller's thread and fans sampling/
// coverage work onto the shared pool. SubmitAsync admits the request into
// a bounded queue (ServingOptions::max_queue_depth) served by a small fixed
// pool of driver threads (ServingOptions::num_drivers) — never one thread
// per request — so a burst beyond capacity is answered with
// Status::ResourceExhausted instead of spawning unbounded threads onto the
// shared pool. SolveBatch blocks for a slot instead.
//
// Sampler cache: each (name, epoch) GraphState owns a SamplerCache of
// grow-only SharedRrCollections holding the full-residual RR/mRR sets —
// the whole of ATEUC/Bisection and round 1 of every adaptive policy —
// shared across every request on that snapshot. Requests read atomically
// published sealed prefixes of EXACTLY the sets their doubling schedule
// asks for and extend only the shortfall; streams are derived from the
// cache KEY (never a request seed), so a set's content is independent of
// which request generated it. A Swap/Retire invalidates by construction:
// new requests resolve a fresh state with an empty cache, old-epoch work
// keeps its pinned cache alive.
//
// Observability: every served request carries a populated RequestProfile
// on its SolveResult (queue wait, sampling/coverage/certify seconds,
// sampling volume, cache_hit and reused-vs-extended set counts,
// request-owned vs shared collection bytes) and feeds the engine-wide
// MetricsRegistry — latency/queue-wait/phase histograms and per-outcome
// counters keyed {graph, algorithm}, plus per-graph asti_sampler_cache_*
// hit/miss/extension/bytes families — exposed via metrics_snapshot() and
// the obs/export.h exporters. Profiling is passive: spans never touch RNG
// streams, partitioning, or merge order. Request-owned RNG streams derive
// from request.seed alone and shared cache streams from the cache key
// alone, so *completed* results are bit-identical — in every field except
// the wall-clock timings (trace seconds, aggregate mean_seconds), which
// measure the run that produced them — whether a request runs solo, in
// SolveBatch, queued behind other requests, interleaved with requests
// against other catalog graphs, against a cold or warm cache, at any pool
// size — including 1, which samples on the driving thread with the same
// index-derived streams. See src/api/README.md.

#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/admission_queue.h"
#include "api/graph_catalog.h"
#include "api/request.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace asti {

class ForwardSimulator;

/// Resident multi-tenant query engine over one graph catalog, one worker
/// pool, and one admission queue.
class SeedMinEngine {
 public:
  /// How the engine SERVES: pool size, drivers, queue depth, cache budget.
  struct ServingOptions {
    /// Shared sampling/coverage workers for all requests: 1 = no pool (work
    /// runs on the driving thread), 0 = one per hardware thread, k = k
    /// workers, of which each parallel loop takes up to k - 1 beside its
    /// driver. Results are identical at every setting.
    size_t num_threads = 1;
    /// Driver threads executing admitted requests (the async serving
    /// concurrency): 0 = one per hardware thread, k = exactly k drivers.
    /// Drivers are spawned lazily on the first SubmitAsync/SolveBatch; they
    /// run blocks of their own requests' loops and are never pool workers.
    size_t num_drivers = 4;
    /// Waiting-room slots beyond the executing drivers: admission capacity
    /// (queued + executing requests) is num_drivers + max_queue_depth. A
    /// burst of capacity + k SubmitAsync calls yields exactly k
    /// ResourceExhausted answers; SolveBatch waits for slots instead (a
    /// synchronous batch caller *is* the backpressure), so batches larger
    /// than capacity still complete.
    size_t max_queue_depth = 64;
    /// Byte budget for each graph's shared sampler cache: when an Acquire
    /// pushes the cache's resident bytes past this, least-recently-used
    /// (kind, model, η, rounding) entries are evicted until it fits (the
    /// entry just served always survives). 0 = unlimited. Eviction never
    /// changes results — a re-created entry regenerates bit-identical sets
    /// — it trades recomputation for memory; asti_sampler_cache_evictions
    /// counts the drops.
    size_t cache_byte_budget = 0;
  };

  /// Per-graph serving counters, part of admission_stats(): one row per
  /// graph with live serving state, newest catalog epoch the engine has
  /// resolved for it.
  struct GraphServingStats {
    std::string name;
    uint64_t epoch = 0;
    /// Requests currently pinned to this graph (admitted or executing,
    /// futures not yet resolved).
    size_t inflight = 0;
    /// Requests served to resolution against this graph since the engine
    /// first saw it (any verdict; rejected-at-admission never counts).
    size_t completed = 0;
  };

  /// The serving front's observability snapshot: the admission queue's
  /// per-outcome counters plus the per-graph routing/inflight view.
  struct EngineStats {
    AdmissionQueue::Stats queue;
    std::vector<GraphServingStats> graphs;  // name order
  };

  /// The catalog must outlive the engine (and every outstanding future).
  /// The engine never copies graphs out of it — requests pin snapshots.
  explicit SeedMinEngine(GraphCatalog& catalog)
      : SeedMinEngine(catalog, ServingOptions{}) {}
  SeedMinEngine(GraphCatalog& catalog, ServingOptions options);

  /// Destruction with requests still in the system: requests a driver is
  /// already executing DRAIN (run to completion, futures resolve normally);
  /// requests still waiting in the queue ABORT (futures resolve to
  /// Status::Cancelled without executing). Blocked producers are woken and
  /// rejected. Callers must not race new submissions against destruction.
  ~SeedMinEngine();

  GraphCatalog& catalog() { return *catalog_; }

  /// The shared pool, or nullptr in sequential mode.
  ThreadPool* pool() { return pool_.get(); }

  /// Admission counters (per-outcome, since construction) plus per-graph
  /// serving counters — the serving front's observability hook.
  EngineStats admission_stats() const;

  /// Engine-wide metrics snapshot: everything the per-request aggregation
  /// recorded (asti_requests_total, asti_request_latency_seconds,
  /// asti_queue_wait_seconds, asti_phase_seconds, asti_rr_sets_total,
  /// asti_collection_bytes — keyed {graph, algorithm}) plus synthesized
  /// admission counters (asti_admission_total{outcome}), the admission
  /// inflight gauge, and per-graph inflight/completed/epoch series derived
  /// from admission_stats(). Feed the result to ExportPrometheusText
  /// (obs/export.h).
  MetricsSnapshot metrics_snapshot() const;

  /// Persists the named graph AND its current sealed sampler-cache
  /// prefixes as an ASMS snapshot at `path` (atomic rename; see
  /// src/store/). Re-registering that file later (snapshot_serving.h)
  /// restores the graph by mmap and warm-starts the cache from the
  /// persisted prefixes — the durable form of PR 7's cross-request reuse.
  /// The export freezes the sets sealed at this call; requests may keep
  /// extending the live cache concurrently. NotFound for names the catalog
  /// doesn't hold.
  Status SaveSnapshot(const std::string& graph_name, const std::string& path,
                      bool include_reverse_csr = true);

  /// Checks every request field — including that request.graph resolves in
  /// the catalog — against the named graph; OK iff Solve would run
  /// (deadline/cancellation state is not consulted — a valid request may
  /// still come back Cancelled or DeadlineExceeded).
  Status Validate(const SolveRequest& request) const;

  /// Serves one request synchronously on the caller's thread, bypassing
  /// admission (the caller's thread is the concurrency bound). Resolves
  /// and pins the graph snapshot on entry; honors request.deadline and
  /// request.cancel.
  StatusOr<SolveResult> Solve(const SolveRequest& request);

  /// Admits one request into the bounded queue; a driver thread executes
  /// it (sampling still fans out to the shared pool). The graph name is
  /// resolved — and its snapshot pinned — here, at admission: a Swap or
  /// Retire of the name after SubmitAsync returns does not affect this
  /// request. The future resolves to the same StatusOr Solve would return,
  /// or to ResourceExhausted when admission is full (never blocks), or to
  /// Cancelled when the engine is destroyed before execution starts.
  /// Invalid requests, unknown graph names, and already-expired deadlines
  /// resolve immediately without consuming admission capacity. The engine
  /// (and its catalog) must outlive every outstanding future.
  std::future<StatusOr<SolveResult>> SubmitAsync(SolveRequest request);

  /// Serves a batch through the admission queue with *blocking* admission
  /// (never rejects; the calling thread waits for slots) and gathers the
  /// results in request order. result[i] is bit-identical to
  /// Solve(requests[i]) run solo. Requests in one batch may target
  /// different catalog graphs.
  std::vector<StatusOr<SolveResult>> SolveBatch(std::span<const SolveRequest> requests);

 private:
  struct GraphCounters;
  struct GraphState;
  struct PendingRequest;

  /// RAII per-graph accounting: inflight while engaged, completed on
  /// release (unless dismissed — the rejected-at-admission path).
  class ServingSlot {
   public:
    ServingSlot() = default;
    explicit ServingSlot(std::shared_ptr<GraphState> state);
    ServingSlot(ServingSlot&& other) noexcept;
    ServingSlot& operator=(ServingSlot&& other) noexcept;
    ServingSlot(const ServingSlot&) = delete;
    ServingSlot& operator=(const ServingSlot&) = delete;
    ~ServingSlot();

    /// Undoes the inflight count without marking completion (the request
    /// never entered the system).
    void Dismiss();

    GraphState* state() const { return state_.get(); }

   private:
    std::shared_ptr<GraphState> state_;
  };

  /// Resolves request.graph to this engine's pinned per-graph state:
  /// InvalidArgument for an empty name, NotFound for names the catalog
  /// doesn't hold. Revalidates cached state against the catalog version
  /// (a swapped name gets fresh state keyed by the new epoch; retired
  /// names are dropped so their snapshots can be freed).
  StatusOr<std::shared_ptr<GraphState>> ResolveGraph(const std::string& name);
  void PruneStatesLocked(uint64_t catalog_version);

  /// Spawns the driver threads on first use.
  void EnsureDrivers();
  void DriverLoop();
  std::future<StatusOr<SolveResult>> Submit(SolveRequest request,
                                            AdmissionQueue::AdmitPolicy policy);

  /// The one execution path: runs `request` against the pinned snapshot in
  /// `state` (both Solve and the driver tasks land here). `queue_wait_
  /// seconds` is the admission→pickup wait for async paths (0 for Solve);
  /// it lands on the result's profile and the queue-wait histogram.
  StatusOr<SolveResult> SolveOn(GraphState& state, const SolveRequest& request,
                                const CancelScope& scope,
                                double queue_wait_seconds = 0.0);
  Status ValidateAgainst(const SolveRequest& request, const DirectedGraph& graph) const;

  /// Records one finished request (any verdict) into the registry (handle
  /// lookups once per request, never per RR set).
  void RecordRequestMetrics(const GraphState& state, const SolveRequest& request,
                            StatusCode code, const RequestProfile& profile);

  StatusOr<SolveResult> RunAdaptive(GraphState& state, const SolveRequest& request,
                                    const CancelScope& scope, RequestProfile* profile);
  StatusOr<SolveResult> RunAteucRequest(GraphState& state, const SolveRequest& request,
                                        const CancelScope& scope,
                                        RequestProfile* profile);
  StatusOr<SolveResult> RunBisectionRequest(GraphState& state,
                                            const SolveRequest& request,
                                            const CancelScope& scope,
                                            RequestProfile* profile);
  SolveResult EvaluateOneShot(GraphState& state, const SolveRequest& request,
                              const std::vector<NodeId>& seeds, double select_seconds,
                              size_t num_samples, const CancelScope& scope);

  GraphCatalog* catalog_;
  ServingOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // engaged when num_threads != 1
  std::unique_ptr<AdmissionQueue> queue_;
  /// Engine-wide metric store; written once per request completion.
  MetricsRegistry registry_;
  std::once_flag drivers_once_;
  std::vector<std::thread> drivers_;

  /// Lazily-built serving state per graph name, revalidated against the
  /// catalog version. Entries pin their snapshot while cached; in-flight
  /// requests hold their own shared_ptr, so dropping an entry here never
  /// pulls a snapshot out from under executing work.
  mutable std::mutex states_mutex_;
  std::map<std::string, std::shared_ptr<GraphState>> graph_states_;
  uint64_t catalog_version_seen_ = 0;
};

}  // namespace asti
