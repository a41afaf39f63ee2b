#pragma once
// Fixed-size thread pool used to run independent simulation replicas in
// parallel. Determinism is preserved because each replica owns a seed-derived
// RngStream; scheduling order cannot affect results.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace p2pse::support {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for completion.
  /// Exceptions from any invocation are rethrown (the first one encountered).
  /// Implemented on parallel_for_ranges, so the per-item cost is one indirect
  /// call, not one heap-allocated future.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs `fn(begin, end)` over a chunked partition of [0, n) and waits for
  /// completion. The pool enqueues at most thread_count()*4 range tasks (one
  /// lock acquisition for the whole batch, zero futures), so millions of
  /// fine-grained items cost a handful of queue operations instead of a
  /// mutex round-trip each. Chunk boundaries depend on thread_count(), so
  /// callers needing thread-invariant work division must partition
  /// themselves (see support/sharding.hpp) and use `fn` merely as the
  /// execution vehicle. Exceptions propagate: the first error in range-index
  /// order is rethrown after all ranges finish.
  void parallel_for_ranges(
      std::size_t n,
      const std::function<void(std::size_t begin, std::size_t end)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

}  // namespace p2pse::support
