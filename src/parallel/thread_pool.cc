#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/check.h"

namespace asti {

namespace {

// A worker count above this is always a caller bug (e.g. a negative flag
// value cast to size_t), not a real machine.
constexpr size_t kMaxThreads = 4096;

// One ParallelBlocks call, shared with its helper tasks. A helper holds it
// by shared_ptr, so one that starts after the call returned still finds it.
struct BlockLoop {
  const std::function<void(size_t, size_t, size_t, size_t)>* fn;  // valid while open
  size_t count;
  size_t block_size;
  size_t num_blocks;
  std::atomic<size_t> next_block{0};
  std::mutex mutex;
  std::condition_variable left;
  bool closed = false;  // every block claimed; no helper joins after this
  size_t joined = 0;    // helpers inside the loop

  void Run(size_t slot) {
    for (size_t block; (block = next_block.fetch_add(1)) < num_blocks;) {
      const size_t begin = block * block_size;
      (*fn)(slot, block, begin, std::min(count, begin + block_size));
    }
  }
};

}  // namespace

size_t ResolveThreadCount(size_t requested) {
  if (requested == 0) {
    requested = std::max(1u, std::thread::hardware_concurrency());
  }
  ASM_CHECK(requested <= kMaxThreads)
      << "implausible thread count " << requested;
  return requested;
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = ResolveThreadCount(num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t count, const std::function<void(size_t chunk, size_t begin, size_t end)>& fn) {
  ParallelBlocks(count, NumThreads(),
                 [&fn](size_t, size_t chunk, size_t begin, size_t end) { fn(chunk, begin, end); });
}

void ThreadPool::ParallelBlocks(
    size_t count, size_t max_blocks,
    const std::function<void(size_t slot, size_t block, size_t begin, size_t end)>& fn) {
  if (count == 0) return;
  auto loop = std::make_shared<BlockLoop>();
  loop->fn = &fn;
  loop->count = count;
  const size_t blocks = std::clamp<size_t>(max_blocks, 1, count);
  loop->block_size = (count + blocks - 1) / blocks;
  loop->num_blocks = (count + loop->block_size - 1) / loop->block_size;
  const size_t helpers = std::min(loop->num_blocks, NumThreads()) - 1;
  for (size_t slot = 1; slot <= helpers; ++slot) {
    Enqueue([loop, slot] {
      {
        std::lock_guard<std::mutex> lock(loop->mutex);
        if (loop->closed) return;
        ++loop->joined;
      }
      loop->Run(slot);
      std::lock_guard<std::mutex> lock(loop->mutex);
      if (--loop->joined == 0) loop->left.notify_all();
    });
  }
  loop->Run(0);
  // Every block is claimed; wait only for the helpers still running one.
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->closed = true;
  loop->left.wait(lock, [&loop] { return loop->joined == 0; });
}

}  // namespace asti
