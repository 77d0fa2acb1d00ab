// Per-request phase profiling: where a SolveRequest's time goes.
//
// Distinct from core/trace.h (which records the *algorithmic* trace of an
// adaptive run — rounds, seeds, samples): a RequestProfile records the
// *serving* breakdown of one request — queue wait vs RR/mRR sampling vs
// greedy coverage vs certify — plus the sampling volume, and rides back
// on SolveResult so clients and benches see per-request phase data
// without any engine-level aggregation.
//
// A PhaseSpan is a scoped timer accumulating into one profile slot. The
// profile is written by the single thread driving the request (sampling
// fans out to the pool, but the sampler/coverage calls themselves
// block on the driving thread), so the slots are plain doubles — no
// atomics on the accumulation path, and a null profile makes every span
// a no-op (a selector built without a profile). Spans never touch RNG
// streams, work partitioning, or merge order, so completed results are
// bit-identical with profiling on or off (the determinism contract of
// src/parallel/README.md extends to observability).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace asti {

/// The serving-phase breakdown of one request, returned on SolveResult.
/// Seconds are wall time on the driving thread; phases are disjoint and
/// (with queue_wait) sum to ≤ total_seconds — the remainder is the
/// adaptive loop's observe/update work and per-request setup.
struct RequestProfile {
  double queue_wait_seconds = 0.0;  // admission → execution start (async paths)
  double sampling_seconds = 0.0;    // RR/mRR-set generation (pool + sequential)
  double coverage_seconds = 0.0;    // greedy / lazy-greedy / argmax coverage
  double certify_seconds = 0.0;     // bound evaluation + doubling decisions
  double total_seconds = 0.0;       // queue wait + execution, whole request
  uint64_t sets_generated = 0;      // RR/mRR sets produced for this request
  /// Peak footprint of REQUEST-OWNED collections only (residual rounds,
  /// hidden worlds). Cache-resident storage is accounted separately below
  /// so shared bytes are never double-charged to every request using them.
  uint64_t collection_bytes = 0;
  /// Peak footprint of the shared (cache-resident) collections this request
  /// read or extended.
  uint64_t shared_collection_bytes = 0;
  uint64_t sets_reused = 0;    // sets served from a sampler-cache sealed prefix
  uint64_t sets_extended = 0;  // sets this request generated INTO the cache
  /// True when every cacheable stage was served entirely from sealed
  /// prefixes (sets_reused > 0 and sets_extended == 0).
  bool cache_hit = false;
};

/// The profile slots a span can accumulate into.
enum class RequestPhase { kSampling, kCoverage, kCertify };

inline double* PhaseSlot(RequestProfile& profile, RequestPhase phase) {
  switch (phase) {
    case RequestPhase::kSampling:
      return &profile.sampling_seconds;
    case RequestPhase::kCoverage:
      return &profile.coverage_seconds;
    case RequestPhase::kCertify:
      return &profile.certify_seconds;
  }
  return &profile.total_seconds;  // unreachable
}

/// Scoped phase timer: adds the enclosed wall time to one profile slot at
/// destruction. Null profile = no-op (and no clock reads).
class PhaseSpan {
 public:
  PhaseSpan(RequestProfile* profile, RequestPhase phase)
      : profile_(profile), phase_(phase) {
    if (profile_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  ~PhaseSpan() {
    if (profile_ == nullptr) return;
    *PhaseSlot(*profile_, phase_) +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
  }

 private:
  RequestProfile* profile_;
  RequestPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Null-tolerant sampling-volume accounting: `sets` more sets generated,
/// collection footprint currently `bytes` (peak is kept).
inline void NoteSampling(RequestProfile* profile, uint64_t sets, uint64_t bytes) {
  if (profile == nullptr) return;
  profile->sets_generated += sets;
  profile->collection_bytes = std::max(profile->collection_bytes, bytes);
}

/// Null-tolerant shared-cache accounting: `reused` sets served from sealed
/// prefixes, `extended` sets generated into the cache by this request
/// (extended sets also count toward sets_generated — the request did the
/// sampling work), cache-resident footprint currently `bytes` (peak kept).
inline void NoteSharedSampling(RequestProfile* profile, uint64_t reused, uint64_t extended,
                               uint64_t bytes) {
  if (profile == nullptr) return;
  profile->sets_reused += reused;
  profile->sets_extended += extended;
  profile->sets_generated += extended;
  profile->shared_collection_bytes = std::max(profile->shared_collection_bytes, bytes);
}

}  // namespace asti
