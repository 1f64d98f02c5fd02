// Persistent worker pool with group-affinity scheduling.
//
// The runtime's phases each run groups × subtasks protocol-role tasks,
// where the subtasks of one group exchange blocking Recv messages with each
// other (the members of a GMW block, the 2(k+1)+2 roles of one edge
// transfer). Spawning a fresh thread per task per batch — what the seed
// scheduler did — pays thread creation and teardown on every phase of every
// iteration. This pool keeps a fixed set of threads alive across phases and
// runs and feeds them tasks instead.
//
// No-deadlock invariant (the load-bearing part): a task may block inside an
// intra-group Recv, so every subtask of its group must be able to hold a
// thread at the same time. Tasks are therefore admitted to the run queue a
// whole group at a time, and a group is only admitted while
//   admitted-but-unfinished tasks + subtasks  <=  thread count.
// Under that bound every admitted task is either running or has an idle
// thread coming for it (threads only block inside tasks), so all admitted
// tasks run concurrently, and since sends never block (transport.h), each
// admitted group's blocking receives are eventually satisfied. Admission
// order is group order, preserving the deterministic global scheduling the
// phases rely on for reproducible traffic.
//
// If one group alone needs more threads than the pool has (subtasks >
// num_threads), the pool grows permanently to fit it — equivalent to the
// seed scheduler's batch floor of one whole group.
#ifndef SRC_CORE_WORKER_POOL_H_
#define SRC_CORE_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dstress::core {

// Thread budget for a phase scheduler: `max_parallel_tasks` if nonzero,
// else 4x hardware concurrency (oversubscribed so blocking intra-group
// receives still leave runnable threads), 16 when concurrency is unknown.
// core::Runtime's budget. The engine's cleartext backend sizes its pool
// to the hardware threads instead: the graph plane's tasks never block.
int ResolveThreadBudget(int max_parallel_tasks);

class WorkerPool {
 public:
  // `num_threads` is the pool's thread budget. Threads are spawned lazily
  // as work demands them — a Runtime over a tiny graph never materializes
  // a many-core machine's full budget — and persist once started.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Current thread budget (grows past the constructor value only when a
  // single group needs more).
  int num_threads() const;

  // Runs fn(group, subtask) for every pair in {0..groups-1} x
  // {0..subtasks-1}, blocking until all complete. Group-affinity batching
  // as described above; one RunGrouped executes at a time (concurrent
  // callers serialize).
  void RunGrouped(size_t groups, size_t subtasks,
                  const std::function<void(size_t, size_t)>& fn);

 private:
  struct Task {
    size_t group;
    size_t subtask;
  };

  void WorkerLoop();
  // Admits whole groups while the invariant allows; callers hold mu_.
  void AdmitGroupsLocked();
  // Spawns threads up to min(capacity_, want); callers hold mu_.
  void EnsureThreadsLocked(size_t want);

  // Serializes RunGrouped callers.
  std::mutex run_mu_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty or shutdown
  std::condition_variable done_cv_;  // RunGrouped caller: remaining == 0
  size_t capacity_;                  // thread budget; admission bound
  std::vector<std::thread> threads_;  // spawned so far (<= capacity_)
  std::deque<Task> queue_;
  bool shutdown_ = false;

  // State of the in-flight RunGrouped, guarded by mu_.
  const std::function<void(size_t, size_t)>* fn_ = nullptr;
  size_t groups_ = 0;
  size_t subtasks_ = 0;
  size_t next_group_ = 0;    // first group not yet admitted
  size_t outstanding_ = 0;   // admitted but unfinished tasks
  size_t remaining_ = 0;     // all unfinished tasks
};

}  // namespace dstress::core

#endif  // SRC_CORE_WORKER_POOL_H_
