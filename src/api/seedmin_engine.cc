#include "api/seedmin_engine.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <tuple>
#include <utility>

#include "baselines/ateuc.h"
#include "baselines/bisection_seedmin.h"
#include "core/asti.h"
#include "diffusion/forward_sim.h"
#include "diffusion/world.h"
#include "sampling/sampler_cache.h"
#include "store/snapshot_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace asti {

namespace {

// Domain-separated stream derivation via Rng::Split(i): world streams are
// shared by every algorithm (same hidden realizations, the §6 protocol),
// selector streams are distinct per (algorithm, run). All derivations root
// at request.seed, never at engine or catalog state, so a result is a pure
// function of (graph snapshot, request).
enum StreamDomain : uint64_t {
  kWorldDomain = 0,
  kAteucDomain = 1,
  kBisectionDomain = 2,
  kSelectorDomainBase = 16,  // + AlgorithmId
};

Rng StreamFor(uint64_t seed, uint64_t domain, size_t run) {
  return Rng(seed).Split(domain).Split(run);
}

// Hidden realization for run r — shared across algorithms by construction.
Realization HiddenRealization(const DirectedGraph& graph, const SolveRequest& request,
                              size_t run) {
  Rng world_rng = StreamFor(request.seed, kWorldDomain, run);
  return request.model == DiffusionModel::kIndependentCascade
             ? Realization::SampleIc(graph, world_rng)
             : Realization::SampleLt(graph, world_rng);
}

// One copy of the empty-name rejection, shared by Validate and
// ResolveGraph so the migration pointer cannot drift between the two
// boundaries that enforce it.
constexpr const char kEmptyGraphNameError[] =
    "request.graph must name a catalog graph (the legacy single-graph "
    "engine binding is gone: Register the graph in the GraphCatalog and "
    "set request.graph)";

void FinishResult(const SolveRequest& request, std::vector<AdaptiveRunTrace> traces,
                  SolveResult& result) {
  result.algorithm = request.algorithm;
  result.aggregate = Aggregate(traces);
  result.always_reached =
      result.aggregate.runs_reaching_target == result.aggregate.runs;
  if (request.keep_traces) result.traces = std::move(traces);
}

}  // namespace

// Per-NAME serving counters, shared across epochs: a Swap must not reset
// the completed total or lose sight of old-epoch requests still
// executing, so the counters outlive any single snapshot's state.
//
// Both counts live in ONE atomic word — completed in the low 32 bits,
// inflight in the high 32 — so a request's completion moves it from
// inflight to completed in a single fetch_add. The previous two-atomic
// scheme had a torn window between the inflight decrement and the
// completed increment where a stats() reader counted the request in
// NEITHER total; packing makes `ever_admitted == inflight + completed`
// hold in every snapshot. 32 bits each is ample: inflight is bounded by
// admission capacity (≪ 2^32) and 4 billion completions per graph name
// exceed any engine lifetime this serves.
struct SeedMinEngine::GraphCounters {
  static constexpr uint64_t kInflightOne = uint64_t{1} << 32;
  static constexpr uint64_t kCompletedMask = kInflightOne - 1;

  std::atomic<uint64_t> packed{0};

  void Engage() { packed.fetch_add(kInflightOne, std::memory_order_relaxed); }
  /// inflight -1, completed +1, atomically (unsigned wrap of the high half
  /// borrows exactly the one inflight unit the request held).
  void Release() {
    packed.fetch_add(uint64_t{1} - kInflightOne, std::memory_order_relaxed);
  }
  /// inflight -1 without completing (rejected-at-admission path).
  void Dismiss() { packed.fetch_sub(kInflightOne, std::memory_order_relaxed); }

  struct View {
    size_t inflight;
    size_t completed;
  };
  View Load() const {
    const uint64_t raw = packed.load(std::memory_order_relaxed);
    return {static_cast<size_t>(raw >> 32),
            static_cast<size_t>(raw & kCompletedMask)};
  }
};

// Per-(name, epoch) serving state: the pinned snapshot, the per-name
// counters (carried over across epochs), and lazily-built scratch reused
// across requests against this snapshot. A Swap produces a NEW GraphState
// (new epoch key), so scratch never crosses epochs; the old state — and
// its snapshot pin — dies with the last in-flight request holding it.
struct SeedMinEngine::GraphState {
  GraphState(GraphRef pinned, std::shared_ptr<GraphCounters> shared_counters,
             size_t cache_byte_budget)
      : ref(std::move(pinned)),
        counters(std::move(shared_counters)),
        sampler_cache(ref.graph(), ref.warm_collections(), cache_byte_budget) {}

  const GraphRef ref;
  const std::shared_ptr<GraphCounters> counters;

  // Shared full-residual sampler cache for THIS (name, epoch) snapshot.
  // Living inside the per-epoch state gives invalidation for free: a
  // catalog Swap/Retire makes new requests resolve a fresh GraphState (and
  // thus an empty cache), while requests still executing on the old epoch
  // keep their pinned state — and its cache — alive through their
  // ServingSlot shared_ptr. CollectionViews handed out pin their chunks
  // independently, so even the last slot dying mid-read is safe.
  SamplerCache sampler_cache;

  // Free list of forward-simulation scratch (visited epochs, frontier
  // buffers) sized for this snapshot. Borrowing hands a simulator to one
  // request at a time, so concurrent one-shot evaluations never share
  // scratch; reuse only skips re-allocation, never changes results.
  std::mutex scratch_mutex;
  std::vector<std::unique_ptr<ForwardSimulator>> free_simulators;

  std::unique_ptr<ForwardSimulator> BorrowSimulator() {
    {
      std::lock_guard<std::mutex> lock(scratch_mutex);
      if (!free_simulators.empty()) {
        std::unique_ptr<ForwardSimulator> simulator = std::move(free_simulators.back());
        free_simulators.pop_back();
        return simulator;
      }
    }
    return std::make_unique<ForwardSimulator>(ref.graph());
  }

  void ReturnSimulator(std::unique_ptr<ForwardSimulator> simulator) {
    std::lock_guard<std::mutex> lock(scratch_mutex);
    free_simulators.push_back(std::move(simulator));
  }
};

SeedMinEngine::ServingSlot::ServingSlot(std::shared_ptr<GraphState> state)
    : state_(std::move(state)) {
  if (state_ != nullptr) state_->counters->Engage();
}

SeedMinEngine::ServingSlot::ServingSlot(ServingSlot&& other) noexcept
    : state_(std::move(other.state_)) {}

SeedMinEngine::ServingSlot& SeedMinEngine::ServingSlot::operator=(
    ServingSlot&& other) noexcept {
  if (this != &other) {
    if (state_ != nullptr) state_->counters->Release();
    state_ = std::move(other.state_);
  }
  return *this;
}

SeedMinEngine::ServingSlot::~ServingSlot() {
  if (state_ != nullptr) state_->counters->Release();
}

void SeedMinEngine::ServingSlot::Dismiss() {
  if (state_ != nullptr) {
    state_->counters->Dismiss();
    state_.reset();  // never admitted: not a completion
  }
}

// One admitted request: the query, the graph state pinned at admission,
// and the promise its SubmitAsync future observes. Owned by the
// AdmissionTask closure until resolution.
struct SeedMinEngine::PendingRequest {
  SolveRequest request;
  ServingSlot slot;
  std::promise<StatusOr<SolveResult>> promise;
  /// Set just before Admit; pickup time minus this is the request's queue
  /// wait (profile.queue_wait_seconds + the queue-wait histogram).
  std::chrono::steady_clock::time_point admitted_at{};
};

SeedMinEngine::SeedMinEngine(GraphCatalog& catalog, ServingOptions options)
    : catalog_(&catalog), options_(options) {
  if (options_.num_threads != 1) pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  options_.num_drivers = ResolveThreadCount(options_.num_drivers);
  const size_t capacity = options_.max_inflight != 0
                              ? options_.max_inflight
                              : options_.num_drivers + options_.max_queue_depth;
  queue_ = std::make_unique<AdmissionQueue>(capacity);
}

SeedMinEngine::~SeedMinEngine() {
  // Abort-queued / drain-executing: strip never-started requests and
  // resolve their futures to Cancelled, then join the drivers, which
  // finish whatever they already picked up.
  for (AdmissionTask& orphan : queue_->Close()) {
    queue_->Complete(orphan(/*aborted=*/true));
  }
  for (std::thread& driver : drivers_) driver.join();
}

SeedMinEngine::EngineStats SeedMinEngine::admission_stats() const {
  EngineStats stats;
  stats.queue = queue_->stats();
  std::lock_guard<std::mutex> lock(states_mutex_);
  for (const auto& [name, state] : graph_states_) {
    GraphServingStats row;
    row.name = name;
    row.epoch = state->ref.epoch();
    const GraphCounters::View counts = state->counters->Load();
    row.inflight = counts.inflight;
    row.completed = counts.completed;
    stats.graphs.push_back(std::move(row));
  }
  return stats;
}

StatusOr<std::shared_ptr<SeedMinEngine::GraphState>> SeedMinEngine::ResolveGraph(
    const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument(kEmptyGraphNameError);
  }
  // Resolution and cache update happen under one states_mutex_ critical
  // section (catalog locks nest inside it, never the other way around).
  // The version is read BEFORE Get: any catalog mutation racing this
  // resolution either lands before the version read (we prune against it
  // now) or after it (Get returns data at least as new as the recorded
  // version, and the next resolution sees the version bump and
  // re-prunes). Either way a stale ref can never be cached with the
  // version marked current.
  std::lock_guard<std::mutex> lock(states_mutex_);
  const uint64_t version = catalog_->version();
  if (version != catalog_version_seen_) PruneStatesLocked(version);
  auto ref = catalog_->Get(name);
  if (!ref.ok()) {
    // Drop any stale cached state so a retired name's snapshot can be
    // freed as soon as its in-flight requests finish.
    graph_states_.erase(name);
    return ref.status();
  }
  std::shared_ptr<GraphState>& slot = graph_states_[name];
  // Snapshot identity is compared alongside the epoch: epochs restart at
  // 1 when a retired name is re-registered, so epoch equality alone could
  // leave a cached state serving the retired snapshot.
  if (slot == nullptr || slot->ref.epoch() != ref->epoch() ||
      slot->ref.snapshot != ref->snapshot) {
    // Scratch is per-snapshot (fresh state), counters are per-name
    // (carried over so a hot-swap never resets the serving totals or
    // loses old-epoch requests still in flight).
    auto counters = slot != nullptr ? slot->counters : std::make_shared<GraphCounters>();
    slot = std::make_shared<GraphState>(std::move(*ref), std::move(counters),
                                        options_.cache_byte_budget);
  }
  return slot;
}

// Revalidates cached states against the catalog: retired names are
// dropped (releasing the cache's snapshot pin), swapped names get fresh
// per-epoch state in place with their per-name counters carried over.
// In-flight requests keep their own shared_ptr pins, so neither path
// pulls a snapshot out from under executing work. Called under
// states_mutex_; takes the catalog lock once (List) rather than once per
// cached entry.
void SeedMinEngine::PruneStatesLocked(uint64_t catalog_version) {
  std::map<std::string, GraphRef> live;
  for (GraphRef& ref : catalog_->List()) live.emplace(ref.name(), std::move(ref));
  for (auto it = graph_states_.begin(); it != graph_states_.end();) {
    const auto current = live.find(it->first);
    if (current == live.end()) {
      it = graph_states_.erase(it);
      continue;
    }
    if (current->second.epoch() != it->second->ref.epoch() ||
        current->second.snapshot != it->second->ref.snapshot) {
      it->second = std::make_shared<GraphState>(std::move(current->second),
                                                it->second->counters,
                                                options_.cache_byte_budget);
    }
    ++it;
  }
  catalog_version_seen_ = catalog_version;
}

Status SeedMinEngine::ValidateAgainst(const SolveRequest& request,
                                      const DirectedGraph& graph) const {
  const NodeId n = graph.NumNodes();
  const AlgorithmInfo* info = AlgorithmRegistry::Find(request.algorithm);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "unknown algorithm id " +
        std::to_string(static_cast<int>(request.algorithm)));
  }
  if (request.eta < 1 || request.eta > n) {
    return Status::InvalidArgument("eta " + std::to_string(request.eta) +
                                   " outside [1, " + std::to_string(n) + "]");
  }
  if (!(request.epsilon > 0.0 && request.epsilon < 1.0)) {
    return Status::InvalidArgument("epsilon " + std::to_string(request.epsilon) +
                                   " outside (0, 1)");
  }
  if (request.realizations == 0) {
    return Status::InvalidArgument("realizations must be >= 1");
  }
  // The override is restricted to plain kAsti (mirroring Parse("ASTI-b")):
  // on a dedicated ASTI-b id it would make result.algorithm disagree with
  // the executed batch size and the selector's RNG stream domain.
  if (request.batch_size != 0 && request.algorithm != AlgorithmId::kAsti) {
    return Status::InvalidArgument(
        std::string("batch_size override is only valid with ASTI (got ") +
        info->name + "); use the ASTI-b id or batch_size on ASTI");
  }
  if (request.algorithm == AlgorithmId::kOracle && request.oracle_trials == 0) {
    return Status::InvalidArgument("oracle_trials must be >= 1");
  }
  return Status::OK();
}

SolveRequest SeedMinEngine::NewRequest(std::string graph) const {
  const RequestDefaults& defaults = options_.request_defaults;
  SolveRequest request;
  request.graph = std::move(graph);
  request.algorithm = defaults.algorithm;
  request.model = defaults.model;
  request.eta = defaults.eta;
  request.epsilon = defaults.epsilon;
  request.realizations = defaults.realizations;
  request.seed = defaults.seed;
  request.rounding = defaults.rounding;
  return request;
}

Status SeedMinEngine::Validate(const SolveRequest& request) const {
  if (request.graph.empty()) {
    return Status::InvalidArgument(kEmptyGraphNameError);
  }
  auto ref = catalog_->Get(request.graph);
  if (!ref.ok()) return ref.status();
  return ValidateAgainst(request, ref->graph());
}

StatusOr<SolveResult> SeedMinEngine::Solve(const SolveRequest& request) {
  auto state = ResolveGraph(request.graph);
  if (!state.ok()) return state.status();
  ASM_RETURN_NOT_OK(ValidateAgainst(request, (*state)->ref.graph()));
  const CancelScope scope(request.cancel, request.deadline);
  ASM_RETURN_NOT_OK(scope.ToStatus());  // expired/cancelled before any work
  const ServingSlot slot(*state);
  return SolveOn(**state, request, scope);
}

StatusOr<SolveResult> SeedMinEngine::SolveOn(GraphState& state,
                                             const SolveRequest& request,
                                             const CancelScope& scope,
                                             double queue_wait_seconds) {
  // Phase slots are threaded through the selector stack only when metrics
  // are on; total/queue-wait are always filled (two clock reads). The
  // profile is passive everywhere it travels, so the seeds/spreads/traces
  // of the result are bit-identical with metrics on or off.
  RequestProfile profile;
  profile.queue_wait_seconds = queue_wait_seconds;
  RequestProfile* slots = options_.enable_metrics ? &profile : nullptr;
  WallTimer exec_timer;
  StatusOr<SolveResult> result =
      request.algorithm == AlgorithmId::kAteuc
          ? RunAteucRequest(state, request, scope, slots)
          : request.algorithm == AlgorithmId::kBisection
                ? RunBisectionRequest(state, request, scope, slots)
                : RunAdaptive(state, request, scope, slots);
  profile.total_seconds = queue_wait_seconds + exec_timer.Seconds();
  // A request is a cache hit iff every cacheable collection it read came
  // entirely from already-sealed prefixes. Computed once here (not in the
  // cache) because one request may Acquire many ladder prefixes.
  profile.cache_hit = profile.sets_reused > 0 && profile.sets_extended == 0;
  if (result.ok()) {
    result->graph_name = state.ref.name();
    result->graph_epoch = state.ref.epoch();
    result->profile = profile;
  }
  RecordRequestMetrics(state, request, result.ok() ? StatusCode::kOk : result.status().code(),
                       profile);
  return result;
}

void SeedMinEngine::RecordRequestMetrics(const GraphState& state,
                                         const SolveRequest& request, StatusCode code,
                                         const RequestProfile& profile) {
  if (!options_.enable_metrics) return;
  auto to_nanos = [](double seconds) {
    return seconds <= 0.0 ? uint64_t{0} : static_cast<uint64_t>(seconds * 1e9);
  };
  const std::string algorithm = AlgorithmRegistry::Name(request.algorithm);
  const MetricLabels labels = {{"graph", state.ref.name()}, {"algorithm", algorithm}};
  registry_
      .GetCounter("asti_requests_total", {{"graph", state.ref.name()},
                                          {"algorithm", algorithm},
                                          {"outcome", StatusCodeName(code)}})
      .Add(1);
  constexpr double kNanos = 1e-9;
  registry_.GetHistogram("asti_request_latency_seconds", labels, kNanos)
      .Record(to_nanos(profile.total_seconds));
  registry_.GetHistogram("asti_queue_wait_seconds", labels, kNanos)
      .Record(to_nanos(profile.queue_wait_seconds));
  const std::pair<const char*, double> phases[] = {
      {"sampling", profile.sampling_seconds},
      {"coverage", profile.coverage_seconds},
      {"certify", profile.certify_seconds},
  };
  for (const auto& [phase, seconds] : phases) {
    registry_
        .GetHistogram("asti_phase_seconds",
                      {{"graph", state.ref.name()},
                       {"algorithm", algorithm},
                       {"phase", phase}},
                      kNanos)
        .Record(to_nanos(seconds));
  }
  registry_.GetCounter("asti_rr_sets_total", labels).Add(profile.sets_generated);
  registry_.GetCounter("asti_rr_sets_reused_total", labels).Add(profile.sets_reused);
  registry_.GetHistogram("asti_collection_bytes", labels)
      .Record(profile.collection_bytes);
  registry_.GetHistogram("asti_shared_collection_bytes", labels)
      .Record(profile.shared_collection_bytes);
}

MetricsSnapshot SeedMinEngine::metrics_snapshot() const {
  MetricsSnapshot snapshot = registry_.Snapshot();
  // Synthesize the admission/serving series from the mutex-consistent
  // EngineStats snapshot, then restore sorted order so exporters emit each
  // metric family contiguously.
  const EngineStats stats = admission_stats();
  const std::pair<const char*, size_t> outcomes[] = {
      {"accepted", stats.queue.accepted},
      {"rejected", stats.queue.rejected},
      {"completed", stats.queue.completed},
      {"cancelled_in_queue", stats.queue.cancelled_in_queue},
      {"deadline_in_queue", stats.queue.deadline_in_queue},
  };
  for (const auto& [outcome, value] : outcomes) {
    snapshot.counters.push_back(
        {"asti_admission_total", {{"outcome", outcome}}, value});
  }
  snapshot.gauges.push_back({"asti_admission_inflight",
                             {},
                             static_cast<int64_t>(stats.queue.in_flight)});
  for (const GraphServingStats& graph : stats.graphs) {
    snapshot.counters.push_back({"asti_graph_completed_total",
                                 {{"graph", graph.name}},
                                 static_cast<uint64_t>(graph.completed)});
    snapshot.gauges.push_back({"asti_graph_inflight",
                               {{"graph", graph.name}},
                               static_cast<int64_t>(graph.inflight)});
    snapshot.gauges.push_back({"asti_graph_epoch",
                               {{"graph", graph.name}},
                               static_cast<int64_t>(graph.epoch)});
  }
  // Per-graph sampler-cache families, read straight off each live
  // GraphState's cache (relaxed monotone counters; a snapshot racing an
  // Acquire sees a consistent-enough point-in-time view). A swapped or
  // retired graph's old cache drops out of the snapshot with its state —
  // the series describe the epoch currently being served.
  {
    std::lock_guard<std::mutex> lock(states_mutex_);
    for (const auto& [name, state] : graph_states_) {
      const MetricLabels graph_label = {{"graph", name}};
      const SamplerCacheStats cache = state->sampler_cache.Stats();
      snapshot.counters.push_back(
          {"asti_sampler_cache_hits_total", graph_label, cache.hits});
      snapshot.counters.push_back(
          {"asti_sampler_cache_misses_total", graph_label, cache.misses});
      snapshot.counters.push_back(
          {"asti_sampler_cache_extensions_total", graph_label, cache.extensions});
      snapshot.counters.push_back(
          {"asti_sampler_cache_sets_reused_total", graph_label, cache.sets_reused});
      snapshot.counters.push_back(
          {"asti_sampler_cache_sets_extended_total", graph_label, cache.sets_extended});
      snapshot.counters.push_back(
          {"asti_sampler_cache_warm_starts_total", graph_label, cache.warm_starts});
      snapshot.counters.push_back(
          {"asti_sampler_cache_sets_adopted_total", graph_label, cache.sets_adopted});
      snapshot.counters.push_back(
          {"asti_sampler_cache_evictions_total", graph_label, cache.evictions});
      snapshot.counters.push_back({"asti_sampler_cache_selection_hits_total", graph_label,
                                   cache.selection_hits});
      snapshot.gauges.push_back(
          {"asti_sampler_cache_bytes", graph_label,
           static_cast<int64_t>(state->sampler_cache.TotalBytes())});
    }
  }
  auto by_identity = [](const auto& a, const auto& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_identity);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_identity);
  return snapshot;
}

Status SeedMinEngine::SaveSnapshot(const std::string& graph_name, const std::string& path,
                                   bool include_reverse_csr) {
  // Resolving pins the current epoch's state; a cold name simply exports a
  // graph with no collection sections.
  ASM_ASSIGN_OR_RETURN(const std::shared_ptr<GraphState> state, ResolveGraph(graph_name));
  const std::vector<SealedCollectionExport> sealed = state->sampler_cache.ExportSealed();
  store::SnapshotWriteOptions options;
  options.include_reverse_csr = include_reverse_csr;
  return store::WriteSnapshot(state->ref.graph(), state->ref.name(),
                              state->ref.weight_scheme(), sealed, path, options);
}

void SeedMinEngine::EnsureDrivers() {
  std::call_once(drivers_once_, [this] {
    drivers_.reserve(options_.num_drivers);
    for (size_t i = 0; i < options_.num_drivers; ++i) {
      drivers_.emplace_back([this] { DriverLoop(); });
    }
  });
}

void SeedMinEngine::DriverLoop() {
  AdmissionTask task;
  while (queue_->Pop(task)) {
    queue_->Complete(task(/*aborted=*/false));
    task = nullptr;  // release the closure before blocking in Pop again
  }
}

std::future<StatusOr<SolveResult>> SeedMinEngine::Submit(
    SolveRequest request, AdmissionQueue::AdmitPolicy policy) {
  auto pending = std::make_shared<PendingRequest>();
  pending->request = std::move(request);
  std::future<StatusOr<SolveResult>> future = pending->promise.get_future();

  // Resolution + fast-fail on the caller's thread: unknown graph names,
  // invalid requests and dead-on-arrival deadlines/cancellations never
  // consume admission capacity. A successfully resolved request pins its
  // snapshot HERE — a catalog Swap/Retire between admission and execution
  // does not touch it.
  auto state = ResolveGraph(pending->request.graph);
  if (!state.ok()) {
    pending->promise.set_value(state.status());
    return future;
  }
  const Status invalid = ValidateAgainst(pending->request, (*state)->ref.graph());
  if (!invalid.ok()) {
    pending->promise.set_value(invalid);
    return future;
  }
  const CancelScope scope(pending->request.cancel, pending->request.deadline);
  const Status stopped = scope.ToStatus();
  if (!stopped.ok()) {
    pending->promise.set_value(stopped);
    return future;
  }

  EnsureDrivers();
  pending->slot = ServingSlot(std::move(*state));
  pending->admitted_at = std::chrono::steady_clock::now();
  AdmissionTask task = [this, pending](bool aborted) -> AdmissionOutcome {
    const double queue_wait =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pending->admitted_at)
            .count();
    if (aborted) {
      pending->promise.set_value(
          Status::Cancelled("engine destroyed before the request executed"));
      return AdmissionOutcome::kCancelledInQueue;
    }
    // Re-check the deadline/cancel scope at pickup: a request whose
    // deadline expired (or token fired) while it waited resolves promptly
    // without touching the sampling pool, and is accounted as an in-queue
    // death rather than executed work.
    const CancelScope run_scope(pending->request.cancel, pending->request.deadline);
    const Status dead = run_scope.ToStatus();
    if (!dead.ok()) {
      const AdmissionOutcome outcome = dead.code() == StatusCode::kDeadlineExceeded
                                           ? AdmissionOutcome::kDeadlineInQueue
                                           : AdmissionOutcome::kCancelledInQueue;
      pending->promise.set_value(dead);
      return outcome;
    }
    pending->promise.set_value(
        SolveOn(*pending->slot.state(), pending->request, run_scope, queue_wait));
    return AdmissionOutcome::kExecuted;
  };
  switch (queue_->Admit(std::move(task), policy)) {
    case AdmissionQueue::AdmitResult::kAdmitted:
      break;
    case AdmissionQueue::AdmitResult::kRejected:
      pending->slot.Dismiss();
      pending->promise.set_value(Status::ResourceExhausted(
          "admission queue full (" + std::to_string(queue_->capacity()) +
          " in flight); retry later or raise max_queue_depth/num_drivers"));
      break;
    case AdmissionQueue::AdmitResult::kClosed:
      pending->slot.Dismiss();
      pending->promise.set_value(
          Status::Cancelled("engine is shutting down; request not admitted"));
      break;
  }
  return future;
}

std::future<StatusOr<SolveResult>> SeedMinEngine::SubmitAsync(SolveRequest request) {
  return Submit(std::move(request), options_.block_when_full
                                        ? AdmissionQueue::AdmitPolicy::kBlock
                                        : AdmissionQueue::AdmitPolicy::kReject);
}

std::vector<StatusOr<SolveResult>> SeedMinEngine::SolveBatch(
    std::span<const SolveRequest> requests) {
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  futures.reserve(requests.size());
  for (const SolveRequest& request : requests) {
    // Blocking admission: the synchronous batch caller is the natural
    // backpressure, so oversized batches throttle instead of rejecting.
    futures.push_back(Submit(request, AdmissionQueue::AdmitPolicy::kBlock));
  }
  std::vector<StatusOr<SolveResult>> results;
  results.reserve(requests.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

StatusOr<SolveResult> SeedMinEngine::RunAdaptive(GraphState& state,
                                                 const SolveRequest& request,
                                                 const CancelScope& scope,
                                                 RequestProfile* profile) {
  const DirectedGraph& graph = state.ref.graph();
  // Full-residual collections come from the epoch's shared cache, or — for
  // --no-cache A/B runs — a request-private one. Streams are key-derived
  // either way, so the choice never changes seeds/spreads/traces.
  std::optional<SamplerCache> private_cache;
  SamplerCache* sampler_cache = request.use_shared_cache
                                    ? &state.sampler_cache
                                    : &private_cache.emplace(graph);
  AlgorithmContext ctx;
  ctx.graph = &graph;
  ctx.model = request.model;
  ctx.epsilon = request.epsilon;
  ctx.batch_size = request.batch_size;
  ctx.rounding = request.rounding;
  ctx.oracle_trials = request.oracle_trials;
  ctx.pool = pool_.get();
  ctx.cancel = &scope;
  ctx.profile = profile;
  ctx.sampler_cache = sampler_cache;

  SolveResult result;
  std::vector<AdaptiveRunTrace> traces;
  for (size_t run = 0; run < request.realizations; ++run) {
    AdaptiveWorld world(graph, request.eta, HiddenRealization(graph, request, run));
    // Selector RNG stream is independent of the hidden world.
    Rng selector_rng =
        StreamFor(request.seed,
                  kSelectorDomainBase + static_cast<uint64_t>(request.algorithm), run);
    auto selector = AlgorithmRegistry::Make(request.algorithm, ctx);
    if (!selector.ok()) return selector.status();
    if (result.algorithm_name.empty()) result.algorithm_name = (*selector)->Name();
    AdaptiveRunTrace trace = RunAdaptivePolicy(world, **selector, selector_rng, &scope);
    // A fired scope means the trace is partial: discard everything and
    // answer with the stop verdict (completed results stay pure functions
    // of (graph snapshot, request) — no partial data ever leaks out).
    ASM_RETURN_NOT_OK(scope.ToStatus());
    result.spreads.push_back(static_cast<double>(trace.total_activated));
    result.seed_counts.push_back(trace.NumSeeds());
    traces.push_back(std::move(trace));
  }
  FinishResult(request, std::move(traces), result);
  return result;
}

// Evaluates a one-shot (non-adaptive) seed set on the shared hidden
// realizations; `select_seconds` / `num_samples` describe the selection.
// Borrows per-graph forward-simulation scratch from the state's free list
// (reused across requests on this epoch's snapshot). Polls the scope per
// realization (a hidden-world sample + forward simulation is the natural
// chunk here); callers discard the partial result when the scope fired.
SolveResult SeedMinEngine::EvaluateOneShot(GraphState& state, const SolveRequest& request,
                                           const std::vector<NodeId>& seeds,
                                           double select_seconds, size_t num_samples,
                                           const CancelScope& scope) {
  const DirectedGraph& graph = state.ref.graph();
  SolveResult result;
  std::vector<AdaptiveRunTrace> traces;
  std::unique_ptr<ForwardSimulator> simulator = state.BorrowSimulator();
  for (size_t run = 0; run < request.realizations; ++run) {
    if (scope.ShouldStop()) break;
    const Realization hidden = HiddenRealization(graph, request, run);
    const size_t spread = simulator->Spread(hidden, seeds);
    AdaptiveRunTrace trace;
    trace.eta = request.eta;
    trace.seeds = seeds;
    trace.total_activated = static_cast<NodeId>(spread);
    trace.target_reached = spread >= request.eta;
    trace.seconds = select_seconds;  // selection cost is paid once
    trace.total_samples = num_samples;
    result.spreads.push_back(static_cast<double>(spread));
    result.seed_counts.push_back(seeds.size());
    traces.push_back(std::move(trace));
  }
  state.ReturnSimulator(std::move(simulator));
  FinishResult(request, std::move(traces), result);
  return result;
}

StatusOr<SolveResult> SeedMinEngine::RunAteucRequest(GraphState& state,
                                                     const SolveRequest& request,
                                                     const CancelScope& scope,
                                                     RequestProfile* profile) {
  Rng select_rng = StreamFor(request.seed, kAteucDomain, 0);
  std::optional<SamplerCache> private_cache;
  AteucOptions options;
  options.pool = pool_.get();
  options.cancel = &scope;
  options.profile = profile;
  options.sampler_cache = request.use_shared_cache
                              ? &state.sampler_cache
                              : &private_cache.emplace(state.ref.graph());
  WallTimer select_timer;
  const AteucResult selection =
      RunAteuc(state.ref.graph(), request.model, request.eta, options, select_rng);
  ASM_RETURN_NOT_OK(scope.ToStatus());  // partial selection: discard
  SolveResult result = EvaluateOneShot(state, request, selection.seeds,
                                       select_timer.Seconds(), selection.num_samples,
                                       scope);
  ASM_RETURN_NOT_OK(scope.ToStatus());  // partial evaluation: discard
  result.algorithm_name = "ATEUC";
  return result;
}

StatusOr<SolveResult> SeedMinEngine::RunBisectionRequest(GraphState& state,
                                                         const SolveRequest& request,
                                                         const CancelScope& scope,
                                                         RequestProfile* profile) {
  Rng select_rng = StreamFor(request.seed, kBisectionDomain, 0);
  std::optional<SamplerCache> private_cache;
  BisectionOptions options;
  options.pool = pool_.get();
  options.cancel = &scope;
  options.profile = profile;
  options.sampler_cache = request.use_shared_cache
                              ? &state.sampler_cache
                              : &private_cache.emplace(state.ref.graph());
  WallTimer select_timer;
  const BisectionResult selection = RunBisectionSeedMin(
      state.ref.graph(), request.model, request.eta, options, select_rng);
  ASM_RETURN_NOT_OK(scope.ToStatus());  // partial selection: discard
  SolveResult result = EvaluateOneShot(state, request, selection.seeds,
                                       select_timer.Seconds(), selection.num_samples,
                                       scope);
  ASM_RETURN_NOT_OK(scope.ToStatus());  // partial evaluation: discard
  result.algorithm_name = "Bisection";
  return result;
}

}  // namespace asti
