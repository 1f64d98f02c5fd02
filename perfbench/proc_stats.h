// Process accounting for the benchmark: CPU time and peak resident memory
// of the driver process and of the bank processes a tcp transport forks.
//
// getrusage(RUSAGE_SELF) misses the banks, and RUSAGE_CHILDREN only counts
// children that were already waited for, so the banks are read from their
// /proc entries while the Engine that owns them is still alive.
#ifndef PERFBENCH_PROC_STATS_H_
#define PERFBENCH_PROC_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;

  double total() const { return user_s + sys_s; }
  CpuTimes Minus(const CpuTimes& before) const {
    return {user_s - before.user_s, sys_s - before.sys_s};
  }
};

// CPU time of this process, all threads included.
CpuTimes SelfCpu();

// VM-wide CPU time from the first line of /proc/stat, in clock ticks: all
// of it, and the part the hypervisor stole (ran another guest while a vCPU
// of this one was runnable). Zero when unreadable.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostTicks ReadHostTicks();

// The share of the VM's CPU time stolen between two readings; 0 when no
// tick passed.
double StealShare(const HostTicks& before, const HostTicks& after);

// Live direct children of this process.
std::vector<int> ChildPids();

// Summed CPU time of `pids`, at clock-tick resolution. A pid that has gone
// away contributes nothing.
CpuTimes PidsCpu(const std::vector<int>& pids);

// Peak resident set size (VmHWM) of `pid` in MiB, 0 when unreadable. Pass
// 0 for this process.
double PeakRssMb(int pid);

// Resident memory `pid` holds alone (Private_Clean + Private_Dirty of
// /proc/<pid>/smaps_rollup) in MiB, 0 when unreadable. Pages a forked child
// still shares with its parent are not counted.
double PrivateResidentMb(int pid);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_STATS_H_
