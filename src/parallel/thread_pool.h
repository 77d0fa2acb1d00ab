// A small reusable worker pool with blocking parallel loops.
//
// The execution substrate of the parallel sampling engine and of the
// serving engine's fan-out (src/api/). Workers are spawned once and reused
// across loops, so per-loop overhead is one mutex round-trip per helper
// task rather than a thread spawn. Loops cut their range into contiguous
// blocks whose boundaries depend only on the range and the block count,
// because the engine's determinism contract ties work-item index (not
// thread) to RNG stream and output slot; see src/parallel/README.md. Which
// thread runs a block is not fixed: the caller and the workers claim
// blocks in index order, so a worker that is slow to be scheduled delays
// no block.
//
// Completion is tracked per loop, not per pool: callers sharing one pool
// (sampler + coverage engine, or concurrent serving requests) each wait on
// their own loop, never on each other's.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asti {

/// Resolves a worker/driver-count knob: 0 = one per hardware thread
/// (min 1), k = exactly k. ASM_CHECKs implausible counts — the shared
/// guard for ThreadPool workers and the SeedMinEngine driver pool, and
/// the shield against size_t wraparound from negative CLI flags.
size_t ResolveThreadCount(size_t requested);

/// Fixed-size pool of worker threads that help callers run parallel loops.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(size_t num_threads = 0);

  /// Runs the helper tasks still queued (each returns at once: its loop has
  /// ended), then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Blocking parallel loop over [0, count): splits the range into at most
  /// NumThreads() contiguous chunks and invokes fn(chunk, begin, end) once
  /// for each. Chunk boundaries depend only on (count, NumThreads()), and
  /// chunk c always covers indices before chunk c+1 — the property
  /// deterministic index-ordered merges rely on. fn must be safe to call
  /// concurrently for distinct chunks. ParallelBlocks with one block per
  /// thread, so the calling thread runs chunks too.
  void ParallelFor(size_t count,
                   const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

  /// Blocking parallel loop over [0, count) cut into at most `max_blocks`
  /// contiguous blocks of ceil(count / max_blocks) indices (the last may be
  /// shorter; empty ones are dropped, so block b covers indices before
  /// block b+1). The calling thread and up to NumThreads() - 1 workers
  /// claim blocks in index order and invoke fn(slot, block, begin, end)
  /// once per block, where `slot` < NumThreads() names the claiming thread
  /// (0 is the caller) and is distinct among the threads of one call — for
  /// per-thread scratch. fn must be safe to call concurrently for distinct
  /// blocks. Returns once every block has run. It never waits for a worker
  /// to be scheduled: a worker that starts after the last block was
  /// claimed returns without calling fn. Concurrent calls from different
  /// threads are isolated from each other.
  void ParallelBlocks(
      size_t count, size_t max_blocks,
      const std::function<void(size_t slot, size_t block, size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();
  void Enqueue(std::function<void()> task);

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace asti
