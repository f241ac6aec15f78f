// Fixed-size worker pool with a shared task queue, and the slot filler
// the science loops' compute phase runs on.
//
// The substrate for real parallel work on host threads. SlotComputer
// runs a target's model predictions in the inference stage
// (core/stage_inference) and a chain's in the pair screen's
// MonomerTable, both through FoldingEngine::predict_models inside one
// serial resolve step; and the cluster stage's predictions, alignments,
// library renders and searches (core/stage_cluster), each loop split
// into a serial lookup, a compute phase over the misses and a serial
// commit. Every item writes only its own slot and journal and store
// calls keep their serial order, so reports, journal and store bytes
// are the same at any thread count. examples/relax_compare runs its
// minimizations on a ThreadPool directly. The dataflow executors never
// use it -- they price work in modeled time. Design follows the usual
// HPC idiom: workers block on a condition variable, submission returns
// std::future, shutdown is explicit and joins all threads (RAII in the
// destructor as backstop).
//
// One heap: the first ThreadPool in a process sets glibc's
// M_ARENA_MAX to 1 before its workers start, so every thread allocates
// from the one heap and memory a worker frees is reused by the next
// allocation on any thread. With a heap per thread, each keeps its own
// high-water mark. Measured with wallbench batch on a 4-CPU VM, a
// target's five models on four threads peaked at 16.3 MiB with a heap
// per thread, and at 21.7 MiB when items were also admitted by a byte
// budget the size of the largest target; with one heap the median peak
// is 11.23 MiB against 11.09 MiB serially.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sf {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a callable; returns a future for its result. Throws
  // std::runtime_error if the pool is already shut down.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args) -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::bind(std::forward<F>(f), std::forward<Args>(args)...));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  // Block until the queue drains and all in-flight tasks finish.
  void wait_idle();

  // Stop accepting work, drain the queue, join workers. Idempotent.
  void shutdown();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

// CPUs the calling thread may run on (its affinity mask), at least 1.
std::size_t affinity_cpus();

// Runs a loop's independent per-item computations on up to `threads`
// threads, by default one per CPU in the calling thread's affinity mask
// (so `taskset -c 0` makes a run serial). Each item writes only its own
// output slot, so the caller's serial commit reads the same values at
// any thread count. With one thread every item runs inline on the
// calling thread. The pool starts on the first fill_slots() with at
// least two items to share out, and later calls reuse it.
class SlotComputer {
 public:
  SlotComputer() : SlotComputer(affinity_cpus()) {}
  explicit SlotComputer(std::size_t threads);

  // Runs fn(k) once for every k in `order`, starting items in that order
  // (costliest first balances the threads best), and returns when all
  // have finished. An exception from fn is rethrown here after every
  // thread has stopped.
  void fill_slots(const std::vector<std::size_t>& order,
                  const std::function<void(std::size_t)>& fn);

 private:
  std::size_t threads_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace sf
