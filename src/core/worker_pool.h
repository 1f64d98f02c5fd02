// Persistent worker pool: a parallel-for over [0, count).
//
// The runtime's transfer sub-phases, the trusted setup's EC walks, the
// graph plane's word ranges and the triple factory's wave passes each run
// a batch of independent tasks. Spawning a fresh thread per task per batch
// — what the seed scheduler did — pays thread creation and teardown on
// every phase of every iteration. This pool keeps its threads alive across
// calls and hands them indices instead.
//
// The one rule for every caller: a task never waits on another task of the
// same call. A task may block in Recv only on a message that an earlier
// call, or the task itself, has already sent (sends never block,
// transport.h). Under that rule a call completes on any number of threads,
// one included, so the pool needs no admission control: its threads claim
// indices from one counter, in increasing order.
#ifndef SRC_CORE_WORKER_POOL_H_
#define SRC_CORE_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dstress::core {

// The machine's hardware threads, 4 when the count is unknown.
int HardwareThreads();

// core::Runtime's thread budget: `max_parallel_tasks` if nonzero, else 4x
// HardwareThreads(). No task needs the spare threads; the 4x is kept for
// set-up time. At one thread per hardware thread, perfbench secure-ot's
// peak_rss_mb fell 28%, but secure-sim's setup_s rose 6.4% (4-vCPU VM,
// alternating 36 s pairs). The engine's cleartext backend and the triple
// factory size their pools at HardwareThreads().
int ResolveThreadBudget(int max_parallel_tasks);

class WorkerPool {
 public:
  // `num_threads` is the pool's thread budget. Threads are spawned lazily
  // as calls demand them — a Runtime over a tiny graph never materializes
  // a many-core machine's full budget — and persist once started.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs fn(i) once for every i in [0, count) on the pool's threads and
  // blocks until all have returned. One Run executes at a time (concurrent
  // callers serialize).
  void Run(size_t count, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  // Serializes Run callers.
  std::mutex run_mu_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: an unclaimed index or shutdown
  std::condition_variable done_cv_;  // Run caller: remaining_ == 0
  const size_t capacity_;             // thread budget
  std::vector<std::thread> threads_;  // spawned so far (<= capacity_)
  bool shutdown_ = false;

  // State of the in-flight Run, guarded by mu_.
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t count_ = 0;
  size_t next_ = 0;       // first unclaimed index
  size_t remaining_ = 0;  // indices not yet finished
};

}  // namespace dstress::core

#endif  // SRC_CORE_WORKER_POOL_H_
