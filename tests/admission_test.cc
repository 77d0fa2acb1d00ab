// Admission-control edge cases for the SeedMinEngine serving core: the
// bounded queue's accept-to-complete accounting, burst rejection pinned to
// exactly k ResourceExhausted answers, per-outcome counters (accepted /
// rejected / cancelled_in_queue / deadline_in_queue), deadlines (expired
// at submit, expired while queued), cooperative cancellation mid-sampling
// and mid-coverage, engine destruction with queued requests (abort-queued
// / drain-executing), and blocking admission. The determinism pins
// (queued/interleaved/cross-graph == solo at every pool size) live in
// engine_test.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "api/admission_queue.h"
#include "api/graph_catalog.h"
#include "api/seedmin_engine.h"
#include "coverage/lazy_greedy.h"
#include "graph/generators.h"
#include "parallel/parallel_sampler.h"
#include "parallel/thread_pool.h"
#include "sampling/rr_collection.h"
#include "util/cancellation.h"

namespace asti {
namespace {

using AdmitPolicy = AdmissionQueue::AdmitPolicy;
using AdmitResult = AdmissionQueue::AdmitResult;

// --- AdmissionQueue unit behaviour -----------------------------------------

TEST(AdmissionQueueTest, CountsAdmitToCompleteNotAdmitToDequeue) {
  AdmissionQueue queue(2);
  int runs = 0;
  AdmissionTask task = [&runs](bool aborted) {
    if (!aborted) ++runs;
    return AdmissionOutcome::kExecuted;
  };
  EXPECT_EQ(queue.Admit(task, AdmitPolicy::kReject), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.Admit(task, AdmitPolicy::kReject), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.Admit(task, AdmitPolicy::kReject), AdmitResult::kRejected);

  // Dequeuing alone frees no capacity — only Complete() does. This is the
  // property that makes burst rejection counts exact.
  AdmissionTask got;
  ASSERT_TRUE(queue.Pop(got));
  EXPECT_EQ(queue.Admit(task, AdmitPolicy::kReject), AdmitResult::kRejected);
  queue.Complete(got(/*aborted=*/false));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(queue.Admit(task, AdmitPolicy::kReject), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.InFlight(), 2u);

  const std::vector<AdmissionTask> orphans = queue.Close();
  EXPECT_EQ(orphans.size(), 2u);  // the two never-popped items
  EXPECT_EQ(queue.Admit(task, AdmitPolicy::kReject), AdmitResult::kClosed);
  AdmissionTask none;
  EXPECT_FALSE(queue.Pop(none));

  const AdmissionQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

// Complete() splits by outcome: items that died waiting (queue-abort,
// token fired, deadline passed) are distinguishable from executed work.
TEST(AdmissionQueueTest, PerOutcomeCountersSplitCompletions) {
  AdmissionQueue queue(4);
  AdmissionTask noop = [](bool) { return AdmissionOutcome::kExecuted; };
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(queue.Admit(noop, AdmitPolicy::kReject), AdmitResult::kAdmitted);
  }
  queue.Complete(AdmissionOutcome::kExecuted);
  queue.Complete(AdmissionOutcome::kCancelledInQueue);
  queue.Complete(AdmissionOutcome::kDeadlineInQueue);
  queue.Complete(AdmissionOutcome::kCancelledInQueue);

  const AdmissionQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 4u);  // every accepted item completes exactly once
  EXPECT_EQ(stats.cancelled_in_queue, 2u);
  EXPECT_EQ(stats.deadline_in_queue, 1u);
  EXPECT_EQ(queue.InFlight(), 0u);
}

// Stats are one consistent snapshot, not a torn multi-counter read:
// accepted == completed + in_flight holds in EVERY snapshot taken while
// producers and consumers race (all three counters move under the same
// mutex the snapshot copies them under).
TEST(AdmissionQueueTest, StatsSnapshotInvariantHoldsUnderRace) {
  AdmissionQueue queue(64);
  AdmissionTask noop = [](bool) { return AdmissionOutcome::kExecuted; };
  std::atomic<bool> stop{false};

  std::thread worker([&queue, &noop] {
    for (int i = 0; i < 4000; ++i) {
      if (queue.Admit(noop, AdmitPolicy::kBlock) != AdmitResult::kAdmitted) break;
      AdmissionTask task;
      if (!queue.Pop(task)) break;
      queue.Complete(task(/*aborted=*/false));
    }
  });
  std::thread reader([&queue, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const AdmissionQueue::Stats stats = queue.stats();
      ASSERT_EQ(stats.accepted, stats.completed + stats.in_flight)
          << "torn stats snapshot";
      ASSERT_LE(stats.cancelled_in_queue + stats.deadline_in_queue,
                stats.completed);
    }
  });
  worker.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const AdmissionQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.accepted, 4000u);
  EXPECT_EQ(stats.completed, 4000u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(AdmissionQueueTest, CloseWakesBlockedProducer) {
  AdmissionQueue queue(1);
  AdmissionTask noop = [](bool) { return AdmissionOutcome::kExecuted; };
  ASSERT_EQ(queue.Admit(noop, AdmitPolicy::kReject), AdmitResult::kAdmitted);
  std::thread producer([&queue, &noop] {
    EXPECT_EQ(queue.Admit(noop, AdmitPolicy::kBlock), AdmitResult::kClosed);
  });
  // Give the producer a moment to park on the full queue, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Close();
  producer.join();
}

// --- Engine-level fixtures --------------------------------------------------

class AdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng small_rng(301);
    auto small = BuildWeightedGraph(MakeBarabasiAlbert(220, 2, small_rng),
                                    WeightScheme::kWeightedCascade);
    ASSERT_TRUE(small.ok());
    ASSERT_TRUE(catalog_.Register("small", std::move(small).value()).ok());

    Rng heavy_rng(302);
    auto heavy = BuildWeightedGraph(MakeChungLu(3000, 18000, 2.1, heavy_rng),
                                    WeightScheme::kWeightedCascade);
    ASSERT_TRUE(heavy.ok());
    heavy_nodes_ = heavy->NumNodes();
    ASSERT_TRUE(catalog_.Register("heavy", std::move(heavy).value()).ok());
  }

  // Finishes in milliseconds — the load for throttling/ordering tests.
  SolveRequest SmallRequest(uint64_t seed) const {
    SolveRequest request;
    request.graph = "small";
    request.eta = 25;
    request.seed = seed;
    return request;
  }

  // Takes many seconds solo (n=3000, eta=n/2, 50 hidden worlds, tight ε):
  // the burst/cancellation tests rely on these NOT completing in the
  // microseconds a submission loop takes, and on cancellation unwinding
  // them long before they would finish.
  SolveRequest HeavyRequest(uint64_t seed, const CancelToken* cancel) const {
    SolveRequest request;
    request.graph = "heavy";
    request.eta = static_cast<NodeId>(heavy_nodes_ / 2);
    request.epsilon = 0.1;
    request.realizations = 50;
    request.seed = seed;
    request.cancel = cancel;
    return request;
  }

  GraphCatalog catalog_;
  NodeId heavy_nodes_ = 0;
};

// The acceptance pin: with D drivers and Q queue slots, a burst of
// D + Q + k submissions yields exactly k ResourceExhausted rejections —
// and they are the LAST k, because admission is decided synchronously in
// submission order and a slot frees only on completion (seconds away for
// these requests), never on dequeue.
TEST_F(AdmissionTest, BurstBeyondCapacityYieldsExactlyKRejections) {
  constexpr size_t kDrivers = 2;
  constexpr size_t kQueueDepth = 3;
  constexpr size_t kOverflow = 4;
  constexpr size_t kCapacity = kDrivers + kQueueDepth;

  CancelToken cancel;
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  {
    SeedMinEngine::ServingOptions options;
    options.num_drivers = kDrivers;
    options.max_queue_depth = kQueueDepth;
    SeedMinEngine engine(catalog_, options);
    for (size_t i = 0; i < kCapacity + kOverflow; ++i) {
      futures.push_back(engine.SubmitAsync(HeavyRequest(100 + i, &cancel)));
    }
    const SeedMinEngine::EngineStats stats = engine.admission_stats();
    EXPECT_EQ(stats.queue.accepted, kCapacity);
    EXPECT_EQ(stats.queue.rejected, kOverflow);
    // Rejected requests never pin the graph: only admitted ones count as
    // inflight against 'heavy'.
    ASSERT_EQ(stats.graphs.size(), 1u);
    EXPECT_EQ(stats.graphs[0].name, "heavy");
    EXPECT_EQ(stats.graphs[0].inflight, kCapacity);

    // Unwind the admitted requests so the test (and engine teardown)
    // finishes promptly instead of solving 5 heavy instances.
    cancel.Cancel();
    for (size_t i = 0; i < futures.size(); ++i) {
      const StatusOr<SolveResult> result = futures[i].get();
      ASSERT_FALSE(result.ok()) << "request " << i;
      if (i < kCapacity) {
        EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "request " << i;
      } else {
        EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
            << "request " << i;
      }
    }
  }
}

TEST_F(AdmissionTest, DeadlineExpiredAtSubmitResolvesWithoutExecuting) {
  SeedMinEngine engine(catalog_);
  SolveRequest request = SmallRequest(7);
  request.deadline = DeadlineAfter(-0.5);

  const auto via_solve = engine.Solve(request);
  ASSERT_FALSE(via_solve.ok());
  EXPECT_EQ(via_solve.status().code(), StatusCode::kDeadlineExceeded);

  auto future = engine.SubmitAsync(request);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  const auto via_async = future.get();
  ASSERT_FALSE(via_async.ok());
  EXPECT_EQ(via_async.status().code(), StatusCode::kDeadlineExceeded);
  // Dead-on-arrival requests never consume admission capacity, and the
  // in-queue death counters stay untouched (nothing was ever queued).
  const SeedMinEngine::EngineStats stats = engine.admission_stats();
  EXPECT_EQ(stats.queue.accepted, 0u);
  EXPECT_EQ(stats.queue.deadline_in_queue, 0u);
}

TEST_F(AdmissionTest, PreCancelledTokenResolvesWithoutExecuting) {
  SeedMinEngine engine(catalog_);
  CancelToken cancel;
  cancel.Cancel();
  SolveRequest request = SmallRequest(7);
  request.cancel = &cancel;
  auto future = engine.SubmitAsync(request);
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  const SeedMinEngine::EngineStats stats = engine.admission_stats();
  EXPECT_EQ(stats.queue.accepted, 0u);
  EXPECT_EQ(stats.queue.cancelled_in_queue, 0u);
}

// A request admitted with a live deadline that expires while it waits
// behind a slow request comes back DeadlineExceeded without executing —
// and is accounted as deadline_in_queue, distinct from the blocker, which
// EXECUTED and was then cancelled mid-run.
TEST_F(AdmissionTest, DeadlineExpiresWhileQueued) {
  SeedMinEngine::ServingOptions options;
  options.num_drivers = 1;  // one driver: the heavy request blocks the queue
  SeedMinEngine engine(catalog_, options);

  CancelToken unblock;
  auto blocker = engine.SubmitAsync(HeavyRequest(11, &unblock));
  SolveRequest queued = SmallRequest(12);
  queued.eta = 25;
  // Wide margins so sanitizer/CI slowdown can't flip the outcome: the
  // deadline must survive the µs-scale submit path (0.5 s of slack) yet
  // be safely expired after the 1.2 s sleep.
  queued.deadline = DeadlineAfter(0.5);
  auto expired = engine.SubmitAsync(queued);
  EXPECT_EQ(engine.admission_stats().queue.accepted, 2u);  // live at submit time

  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  unblock.Cancel();  // heavy request unwinds; driver reaches the queued one

  const auto blocker_result = blocker.get();
  ASSERT_FALSE(blocker_result.ok());
  EXPECT_EQ(blocker_result.status().code(), StatusCode::kCancelled);
  const auto expired_result = expired.get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);

  // Outcome split: the blocker executed (its mid-run cancellation is NOT
  // an in-queue death); the second request died waiting on its deadline.
  SeedMinEngine::EngineStats stats = engine.admission_stats();
  for (int i = 0; i < 500 && stats.queue.completed < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = engine.admission_stats();
  }
  EXPECT_EQ(stats.queue.completed, 2u);
  EXPECT_EQ(stats.queue.deadline_in_queue, 1u);
  EXPECT_EQ(stats.queue.cancelled_in_queue, 0u);
}

// A token fired while its request is still waiting behind a blocker is an
// in-queue cancellation: the request never executes and the per-outcome
// counter says so.
TEST_F(AdmissionTest, TokenFiredWhileQueuedCountsAsCancelledInQueue) {
  SeedMinEngine::ServingOptions options;
  options.num_drivers = 1;
  SeedMinEngine engine(catalog_, options);

  CancelToken unblock;
  auto blocker = engine.SubmitAsync(HeavyRequest(13, &unblock));
  CancelToken cancel_queued;
  SolveRequest queued = SmallRequest(14);
  queued.cancel = &cancel_queued;
  auto cancelled = engine.SubmitAsync(queued);
  EXPECT_EQ(engine.admission_stats().queue.accepted, 2u);

  cancel_queued.Cancel();  // fires while the request waits in the queue
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  unblock.Cancel();

  const auto cancelled_result = cancelled.get();
  ASSERT_FALSE(cancelled_result.ok());
  EXPECT_EQ(cancelled_result.status().code(), StatusCode::kCancelled);
  const auto blocker_result = blocker.get();
  ASSERT_FALSE(blocker_result.ok());

  SeedMinEngine::EngineStats stats = engine.admission_stats();
  for (int i = 0; i < 500 && stats.queue.completed < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = engine.admission_stats();
  }
  EXPECT_EQ(stats.queue.cancelled_in_queue, 1u);
  EXPECT_EQ(stats.queue.deadline_in_queue, 0u);
}

// Cooperative cancellation mid-run, without a pool (pool size 1: the
// sampler's single chunk runs on the driver thread) and with one (chunks
// on pool workers); both poll the scope at ParallelRrSampler's stride
// boundaries.
TEST_F(AdmissionTest, CancellationMidSamplingUnwindsPromptly) {
  for (size_t threads : {size_t{1}, size_t{2}}) {
    SeedMinEngine::ServingOptions options;
    options.num_threads = threads;
    options.num_drivers = 1;
    SeedMinEngine engine(catalog_, options);
    CancelToken cancel;
    auto future = engine.SubmitAsync(HeavyRequest(21, &cancel));
    // Let the driver get well into sampling before pulling the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    cancel.Cancel();
    const auto result = future.get();
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << "threads=" << threads;
  }
}

// --- Mid-coverage and mid-generation cancellation, unit level ---------------

RrCollection FromSets(NodeId n, const std::vector<std::vector<NodeId>>& sets) {
  RrCollection collection(n);
  for (const auto& set : sets) {
    for (NodeId v : set) collection.PushNode(v);
    collection.SealSet();
  }
  return collection;
}

TEST(CoverageCancellationTest, FiredScopeStopsGreedyBeforeAnyPick) {
  const RrCollection collection = FromSets(4, {{0, 1}, {1, 2}, {1, 3}, {0}});
  CancelToken cancel;
  cancel.Cancel();
  const CancelScope scope(&cancel, CancelScope::kNoDeadline);
  const MaxCoverageResult lazy =
      LazyGreedyMaxCoverage(collection, 3, nullptr, nullptr, &scope);
  EXPECT_TRUE(lazy.selected.empty());
  EXPECT_EQ(lazy.covered_sets, 0u);
}

TEST(CoverageCancellationTest, LiveScopeChangesNothing) {
  const RrCollection collection = FromSets(4, {{0, 1}, {1, 2}, {1, 3}, {0}});
  CancelToken cancel;
  const CancelScope scope(&cancel, CancelScope::kNoDeadline);
  const MaxCoverageResult with_scope =
      LazyGreedyMaxCoverage(collection, 2, nullptr, nullptr, &scope);
  const MaxCoverageResult without = LazyGreedyMaxCoverage(collection, 2);
  EXPECT_EQ(with_scope.selected, without.selected);
  EXPECT_EQ(with_scope.covered_sets, without.covered_sets);
}

TEST(SamplerCancellationTest, FiredScopeStopsBatchGeneration) {
  Rng graph_rng(303);
  auto graph = BuildWeightedGraph(MakeBarabasiAlbert(200, 2, graph_rng),
                                  WeightScheme::kWeightedCascade);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeId> all_nodes(graph->NumNodes());
  std::iota(all_nodes.begin(), all_nodes.end(), 0);

  CancelToken cancel;
  cancel.Cancel();
  const CancelScope scope(&cancel, CancelScope::kNoDeadline);
  ThreadPool two(2);
  for (ThreadPool* pool : {&two, static_cast<ThreadPool*>(nullptr)}) {
    ParallelRrSampler sampler(*graph, DiffusionModel::kIndependentCascade, pool, &scope);
    RrCollection collection(graph->NumNodes());
    Rng rng(7);
    sampler.GenerateIndexed(all_nodes, nullptr, 0, 10000, collection, rng.Split());
    // Every chunk observed the fired scope at its first stride boundary.
    EXPECT_EQ(collection.NumSets(), 0u) << (pool != nullptr ? "pooled" : "no pool");
  }
}

// --- Destruction and blocking admission ------------------------------------

// Destroying an engine with requests still in the system: queued requests
// abort (futures resolve Cancelled, never execute), the at-most-D already
// picked up drain to completion. With one driver and five requests, at
// least four must come back Cancelled.
TEST_F(AdmissionTest, DestructionAbortsQueuedAndDrainsExecuting) {
  std::vector<std::future<StatusOr<SolveResult>>> futures;
  {
    SeedMinEngine::ServingOptions options;
    options.num_drivers = 1;
    options.max_queue_depth = 8;
    SeedMinEngine engine(catalog_, options);
    for (size_t i = 0; i < 5; ++i) {
      SolveRequest request = SmallRequest(40 + i);
      request.eta = 60;
      request.realizations = 40;  // ~hundreds of ms: outlives the submit loop
      futures.push_back(engine.SubmitAsync(request));
    }
  }  // engine destroyed with (at least) four requests still queued

  size_t completed = 0;
  size_t aborted = 0;
  for (auto& future : futures) {
    const StatusOr<SolveResult> result = future.get();
    if (result.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      ++aborted;
    }
  }
  EXPECT_EQ(completed + aborted, 5u);
  EXPECT_GE(aborted, 4u);  // one driver can have started at most one
}

// Per-graph serving counters move atomically (one packed word): a reader
// polling admission_stats() during a racing workload must never observe a
// completion "in between" — inflight decremented but completed not yet
// incremented, or vice versa. Without cancellations, completed and
// inflight + completed are both non-decreasing across snapshots, and a
// torn read would show a dip.
TEST_F(AdmissionTest, PerGraphCountersNeverTearUnderRace) {
  constexpr size_t kRequests = 24;
  SeedMinEngine::ServingOptions options;
  options.num_drivers = 2;
  options.max_queue_depth = kRequests;  // room for the whole burst: never rejects
  SeedMinEngine engine(catalog_, options);

  std::atomic<bool> stop{false};
  std::thread reader([&engine, &stop] {
    size_t last_completed = 0;
    size_t last_ever = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const SeedMinEngine::EngineStats stats = engine.admission_stats();
      ASSERT_EQ(stats.queue.accepted,
                stats.queue.completed + stats.queue.in_flight);
      for (const auto& graph : stats.graphs) {
        if (graph.name != "small") continue;
        ASSERT_GE(graph.completed, last_completed) << "completed went backwards";
        ASSERT_GE(graph.inflight + graph.completed, last_ever)
            << "torn per-graph snapshot";
        last_completed = graph.completed;
        last_ever = graph.inflight + graph.completed;
      }
    }
  });

  std::vector<std::future<StatusOr<SolveResult>>> futures;
  for (size_t i = 0; i < kRequests; ++i) {
    futures.push_back(engine.SubmitAsync(SmallRequest(500 + i)));
  }
  for (auto& future : futures) {
    const StatusOr<SolveResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  SeedMinEngine::EngineStats stats = engine.admission_stats();
  for (int i = 0; i < 500 && stats.queue.completed < kRequests; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stats = engine.admission_stats();
  }
  ASSERT_EQ(stats.graphs.size(), 1u);
  EXPECT_EQ(stats.graphs[0].completed, kRequests);
  EXPECT_EQ(stats.graphs[0].inflight, 0u);
  EXPECT_EQ(stats.queue.in_flight, 0u);
}

TEST_F(AdmissionTest, SolveBatchLargerThanCapacityCompletes) {
  SeedMinEngine::ServingOptions options;
  options.num_drivers = 1;
  options.max_queue_depth = 1;  // capacity 2 vs a batch of 6
  SeedMinEngine engine(catalog_, options);

  std::vector<SolveRequest> requests;
  for (size_t i = 0; i < 6; ++i) requests.push_back(SmallRequest(80 + i));
  const auto results = engine.SolveBatch(requests);
  ASSERT_EQ(results.size(), requests.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(engine.admission_stats().queue.rejected, 0u);
}

}  // namespace
}  // namespace asti
