// The uniform query/response pair of the SeedMinEngine façade.
//
// The paper frames adaptive seed minimization as a query — given (graph,
// model, η, ε), return a minimal seed sequence. SolveRequest is that query
// as a value type: the *name* of a catalog graph plus every knob the nine
// legacy entry points re-threaded (algorithm id, model, η, ε, batch size,
// realizations, per-request seed, algorithm-specific params) in one
// struct. The graph name is resolved against the engine's GraphCatalog at
// admission; the request pins that snapshot (name, epoch) for its whole
// execution, so hot-swapping the graph never perturbs in-flight work. A
// request carries its own RNG seed; request-owned streams (hidden worlds,
// residual-round sampling) are derived from that seed alone, while shared
// full-residual collections use streams derived from the sampler-cache KEY
// (never any request's seed — see src/api/README.md). A SolveResult is
// therefore a pure function of (graph snapshot, request) — bit-identical
// whether the request runs solo, batched, interleaved with other clients
// on a shared pool, against a warm or cold cache, or with
// use_shared_cache off.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/algorithm_registry.h"
#include "core/trace.h"
#include "diffusion/model.h"
#include "graph/types.h"
#include "obs/span.h"
#include "stats/truncation.h"
#include "util/cancellation.h"

namespace asti {

/// One seed-minimization query.
struct SolveRequest {
  /// Name of the catalog graph to solve against, resolved at admission:
  /// Status::NotFound for names the catalog doesn't hold,
  /// Status::InvalidArgument when left empty (the legacy single-graph
  /// engine binding is gone — every request names its dataset). The
  /// resolved snapshot is pinned for the request's lifetime; the answer
  /// records the (graph_name, graph_epoch) it was computed on.
  std::string graph;
  AlgorithmId algorithm = AlgorithmId::kAsti;
  DiffusionModel model = DiffusionModel::kIndependentCascade;
  /// Activation threshold η ∈ [1, n].
  NodeId eta = 1;
  /// Approximation slack ε ∈ (0, 1) for the adaptive sampling-based
  /// algorithms (TRIM family, AdaptIM). The one-shot baselines (ATEUC,
  /// Bisection) keep their internal confidence defaults — their ε is a
  /// different quantity (bound confidence, not approximation slack) and
  /// the §6 comparison protocol pins it; the field is still validated so
  /// one request shape has one contract.
  double epsilon = 0.5;
  /// Batch-size override for kAsti: 0 = b = 1, otherwise TRIM runs with
  /// batch b (how non-canonical batches like ASTI-16 are expressed).
  /// Invalid on every other algorithm id — the ASTI-b ids carry their own
  /// batch, and mixing the two would desynchronize the result's algorithm
  /// label and RNG stream domain from the executed configuration.
  NodeId batch_size = 0;
  /// Hidden realizations to solve against (the paper averages 20); must
  /// be >= 1. Adaptive algorithms re-run per realization; non-adaptive
  /// ones select once and are evaluated on all of them.
  size_t realizations = 1;
  /// Per-request RNG root: hidden worlds and selector streams are all
  /// derived from this seed via Rng::Split, independent of engine state.
  uint64_t seed = 1;
  /// Retain full per-round traces in the result (Fig. 10 style analyses).
  bool keep_traces = false;
  /// Root-count rounding ablation hook (TRIM family).
  RootRounding rounding = RootRounding::kRandomized;
  /// MC trials per candidate for OracleGreedy.
  size_t oracle_trials = 200;
  /// When true (default) the request's full-residual collections — ATEUC /
  /// Bisection whole runs, round 1 of every adaptive algorithm — are served
  /// from the engine's per-(graph, epoch) shared sampler cache. When false
  /// the request samples those collections fresh into a request-private
  /// cache (the asm_tool --no-cache A/B path). Results are BIT-IDENTICAL
  /// either way: cache streams are derived from the cache key, never the
  /// request seed (see src/api/README.md, "Sampler cache & certified
  /// reuse"). Only timing, profile cache counters, and engine cache metrics
  /// differ.
  bool use_shared_cache = true;
  /// Cooperative cancellation handle (optional, not owned; may be shared
  /// by several requests). Must stay alive until this request's result —
  /// or future — resolves; the engine polls it at chunk/pick/round
  /// boundaries and answers Status::Cancelled once it fires. Completed
  /// results are bit-identical with or without a token attached.
  const CancelToken* cancel = nullptr;
  /// Absolute steady-clock deadline; kNoDeadline (the default) disables
  /// it. Measured against the whole request lifetime — queue wait under
  /// SubmitAsync counts — and answered with Status::DeadlineExceeded.
  /// Build relative deadlines with DeadlineAfter(seconds).
  std::chrono::steady_clock::time_point deadline = CancelScope::kNoDeadline;
};

/// The engine's answer: per-realization outcomes plus their aggregate.
struct SolveResult {
  AlgorithmId algorithm = AlgorithmId::kAsti;
  /// Selector display name ("ASTI", "ASTI-16", "ATEUC", ...).
  std::string algorithm_name;
  /// Catalog identity of the snapshot this result was computed on: the
  /// request's graph name and the epoch it resolved to at admission.
  /// Reproducing the result requires that exact (name, epoch) snapshot.
  std::string graph_name;
  uint64_t graph_epoch = 0;
  RunAggregate aggregate;
  std::vector<double> spreads;           // final spread per realization
  std::vector<size_t> seed_counts;       // per realization
  std::vector<AdaptiveRunTrace> traces;  // only if keep_traces
  /// True iff every realization reached η.
  bool always_reached = false;
  /// Serving-phase breakdown of this request (queue wait, sampling,
  /// coverage, certify, total; sampling volume). Phase slots are populated
  /// when the engine runs with ServingOptions::enable_metrics (the default);
  /// total/queue-wait are always filled. Profiling is passive — the seeds,
  /// spreads, and traces above are bit-identical with metrics on or off.
  RequestProfile profile;
};

}  // namespace asti
