#include "p2pse/support/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

namespace p2pse::support {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_ranges(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_ranges(
    std::size_t n,
    const std::function<void(std::size_t begin, std::size_t end)>& fn) {
  if (n == 0) return;

  // Oversubscribe modestly (4 chunks per worker) so a straggler range does
  // not serialize the tail, while keeping queue traffic bounded.
  const std::size_t chunks = std::min(n, thread_count() * 4);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }

  // All batch state lives on the caller's stack; tasks reference it and the
  // caller blocks until `remaining` hits zero, so no lifetime extension
  // (shared_ptr / future) is needed.
  struct Batch {
    explicit Batch(std::size_t ranges) : remaining(ranges), errors(ranges) {}
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;  // slot per range, index order
  } batch(chunks);

  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  {
    const std::lock_guard lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool: parallel_for after shutdown");
    }
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t len = base + (c < extra ? 1 : 0);
      const std::size_t end = begin + len;
      queue_.emplace_back([&batch, &fn, c, begin, end] {
        try {
          fn(begin, end);
        } catch (...) {
          const std::lock_guard guard(batch.mutex);
          batch.errors[c] = std::current_exception();
        }
        // Notify under the lock: once `remaining` reads zero the caller may
        // return and destroy `batch`, so the condition variable must not be
        // touched after the mutex is released.
        const std::lock_guard guard(batch.mutex);
        if (--batch.remaining == 0) batch.done.notify_one();
      });
      begin = end;
    }
  }
  wake_.notify_all();

  {
    std::unique_lock lock(batch.mutex);
    batch.done.wait(lock, [&batch] { return batch.remaining == 0; });
  }
  // Rethrow deterministically: the lowest-indexed failing range wins,
  // independent of which worker finished first.
  for (const auto& error : batch.errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace p2pse::support
