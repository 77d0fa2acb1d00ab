// A small reusable worker pool with a task-batch / ParallelFor API.
//
// The execution substrate of the parallel sampling engine and of async
// batch serving (src/api/). Workers are spawned once and reused across
// batches, so per-batch overhead is one mutex round-trip per task rather
// than a thread spawn. Scheduling is deliberately simple — contiguous
// static chunks — because the engine's determinism contract ties
// work-item index (not thread) to RNG stream and output slot; see
// src/parallel/README.md.
//
// Completion is tracked per TaskGroup, not per pool: callers sharing one
// pool (sampler + coverage engine, or concurrent serving requests) each
// wait on their own batch, never on each other's tasks.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace asti {

class ThreadPool;

/// Resolves a worker/driver-count knob: 0 = one per hardware thread
/// (min 1), k = exactly k. ASM_CHECKs implausible counts — the shared
/// guard for ThreadPool workers and the SeedMinEngine driver pool, and
/// the shield against size_t wraparound from negative CLI flags.
size_t ResolveThreadCount(size_t requested);

/// Completion tracker for one batch of tasks. Several groups can be in
/// flight on the same ThreadPool; Wait() blocks only on tasks submitted
/// against THIS group, so independent callers sharing a pool never wait on
/// (or wake for) each other's work. Must outlive its in-flight tasks —
/// stack allocation around a submit-then-wait sequence is the intended use.
class TaskGroup {
 public:
  TaskGroup() = default;
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until every task submitted against this group has finished.
  void Wait();

 private:
  friend class ThreadPool;
  void Add();     // one more task in flight
  void Finish();  // one task done; wakes waiters at zero

  std::mutex mutex_;
  std::condition_variable done_;
  size_t pending_ = 0;
};

/// Fixed-size pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(size_t num_threads = 0);

  /// Joins all workers. Pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t NumThreads() const { return workers_.size(); }

  /// Enqueues one task against `group`. Tasks must not throw.
  void Submit(TaskGroup& group, std::function<void()> task);

  /// Enqueues one task against the pool-wide default group. Convenience for
  /// single-caller pools; concurrent callers should own a TaskGroup each.
  void Submit(std::function<void()> task) { Submit(default_group_, std::move(task)); }

  /// Blocks until every task submitted via the single-argument Submit has
  /// finished. Tasks submitted against explicit TaskGroups are not waited
  /// for — use TaskGroup::Wait for those.
  void Wait() { default_group_.Wait(); }

  /// Blocking parallel loop over [0, count): splits the range into at most
  /// NumThreads() contiguous chunks and invokes fn(chunk, begin, end) for
  /// each. Chunk boundaries depend only on (count, NumThreads()), and chunk
  /// c always covers indices before chunk c+1 — the property deterministic
  /// index-ordered merges rely on. fn must be safe to call concurrently for
  /// distinct chunks. Waits on a private TaskGroup, so concurrent
  /// ParallelFor calls from different threads are isolated from each other.
  void ParallelFor(size_t count,
                   const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::deque<std::pair<std::function<void()>, TaskGroup*>> queue_;
  bool stopping_ = false;
  TaskGroup default_group_;
  std::vector<std::thread> workers_;
};

}  // namespace asti
