#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sf {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a + b; }, 20, 22);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 30; ++i) {
    pool.submit([&count] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++count;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 30);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.submit([] {}).get();
  pool.shutdown();
  pool.shutdown();
  SUCCEED();
}

TEST(ThreadPool, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ConcurrentSubmitters) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &count] {
      for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
    });
  }
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
}

std::vector<std::size_t> descending(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.rbegin(), order.rend(), std::size_t{0});
  return order;
}

TEST(SlotComputer, FillsEverySlotOnceAtAnyThreadCount) {
  for (const std::size_t threads : {1, 2, 7}) {
    SlotComputer compute(threads);
    for (const std::size_t n : {0, 1, 2, 100}) {
      std::vector<int> slots(n, 0);
      compute.fill_slots(descending(n), [&](std::size_t k) { slots[k] += 1; });
      EXPECT_EQ(slots, std::vector<int>(n, 1)) << threads << " threads, " << n << " items";
    }
  }
}

TEST(SlotComputer, OneThreadRunsInlineInTheGivenOrder) {
  SlotComputer compute(1);
  std::vector<std::size_t> seen;
  compute.fill_slots(descending(5), [&](std::size_t k) { seen.push_back(k); });
  EXPECT_EQ(seen, descending(5));
}

TEST(SlotComputer, RethrowsAnItemsExceptionAfterTheOtherItemsFinish) {
  SlotComputer compute(4);
  std::vector<int> slots(50, 0);
  EXPECT_THROW(compute.fill_slots(descending(50),
                                  [&](std::size_t k) {
                                    if (k == 7) throw std::runtime_error("item 7");
                                    slots[k] = 1;
                                  }),
               std::runtime_error);
  EXPECT_EQ(std::count(slots.begin(), slots.end(), 1), 49);
  // The pool survives a failed call.
  compute.fill_slots(descending(50), [&](std::size_t k) { slots[k] = 2; });
  EXPECT_EQ(std::count(slots.begin(), slots.end(), 2), 50);
}

}  // namespace
}  // namespace sf
