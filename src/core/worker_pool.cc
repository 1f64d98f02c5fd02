#include "src/core/worker_pool.h"

#include <algorithm>

namespace dstress::core {

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : static_cast<int>(hw);
}

WorkerPool::WorkerPool(int num_threads)
    : capacity_(static_cast<size_t>(num_threads > 0 ? num_threads : HardwareThreads())) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void WorkerPool::Run(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) {
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  // Spawn no more threads than this call can occupy.
  while (threads_.size() < std::min(count, capacity_)) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
  fn_ = &fn;
  count_ = count;
  next_ = 0;
  remaining_ = count;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  fn_ = nullptr;
  count_ = 0;
  next_ = 0;
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return shutdown_ || next_ < count_; });
    if (shutdown_) {
      return;
    }
    const size_t index = next_++;
    const std::function<void(size_t)>* fn = fn_;
    lock.unlock();
    (*fn)(index);
    lock.lock();
    if (--remaining_ == 0) {
      done_cv_.notify_all();
    }
  }
}

}  // namespace dstress::core
