#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#ifdef __linux__
#include <sched.h>
#endif

namespace sf {

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t affinity_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

SlotComputer::SlotComputer(std::size_t threads) : threads_(std::max<std::size_t>(1, threads)) {}

void SlotComputer::fill_slots(const std::vector<std::size_t>& order,
                              const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min(threads_, order.size());
  if (workers < 2) {
    for (const std::size_t k : order) fn(k);
    return;
  }
  if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
  // Each worker claims the next unstarted item until none is left.
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < order.size(); i = next.fetch_add(1)) {
      fn(order[i]);
    }
  };
  std::vector<std::future<void>> running;
  running.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) running.push_back(pool_->submit(drain));
  std::exception_ptr error;
  for (auto& r : running) {
    try {
      r.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sf
