#include "src/core/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace dstress::core {
namespace {

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::mutex mu;
  std::multiset<size_t> seen;
  pool.Run(39, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(i);
  });
  ASSERT_EQ(seen.size(), 39u);
  for (size_t i = 0; i < 39; i++) {
    EXPECT_EQ(seen.count(i), 1u) << "index " << i;
  }
}

// Many back-to-back calls of sizes 0, 1, below the thread count, at it and
// far above it. Each call's counters die when it returns, so a task that
// ran late, or twice, or for a neighbouring call would show as a wrong
// count here or as a use after free under the sanitizers.
TEST(WorkerPoolTest, BackToBackCallsRunEveryIndexExactlyOnce) {
  constexpr size_t kThreads = 4;
  WorkerPool pool(static_cast<int>(kThreads));
  for (int round = 0; round < 200; round++) {
    for (size_t count : {size_t{0}, size_t{1}, kThreads - 1, kThreads, 64 * kThreads + 3}) {
      std::vector<std::atomic<int>> runs(count);
      pool.Run(count, [&](size_t i) { runs[i].fetch_add(1, std::memory_order_relaxed); });
      for (size_t i = 0; i < count; i++) {
        ASSERT_EQ(runs[i].load(), 1) << "round " << round << " count " << count << " index " << i;
      }
    }
  }
}

// Threads are spawned lazily, no more than a call can occupy, and never
// past the budget; a budget of 0 is one thread per hardware thread.
TEST(WorkerPoolTest, SpawnsNoMoreThreadsThanTheBudget) {
  for (int budget : {3, 0}) {
    WorkerPool pool(budget);
    std::mutex mu;
    std::set<std::thread::id> threads;
    auto record = [&](size_t) {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    };
    pool.Run(1, record);
    EXPECT_EQ(threads.size(), 1u);
    for (int call = 0; call < 20; call++) {
      pool.Run(100, record);
    }
    EXPECT_LE(threads.size(), static_cast<size_t>(budget > 0 ? budget : HardwareThreads()));
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);  // the caller only waits
  }
}

TEST(WorkerPoolTest, ZeroWorkIsANoOp) {
  WorkerPool pool(2);
  pool.Run(0, [&](size_t) { FAIL(); });
}

}  // namespace
}  // namespace dstress::core
