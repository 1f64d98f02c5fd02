#include "perfbench/proc_stats.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

double Seconds(const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; }

// The fields of /proc/<pid>/stat after the parenthesised command name
// (which may itself hold spaces): [0] = state, [1] = ppid, [11] = utime,
// [12] = stime. Empty when the process is gone.
std::vector<std::string> StatFields(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) {
    return {};
  }
  size_t close = line.rfind(')');
  if (close == std::string::npos) {
    return {};
  }
  std::istringstream rest(line.substr(close + 1));
  std::vector<std::string> fields;
  for (std::string field; rest >> field;) {
    fields.push_back(field);
  }
  return fields.size() > 12 ? fields : std::vector<std::string>{};
}

}  // namespace

CpuTimes SelfCpu() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {Seconds(usage.ru_utime), Seconds(usage.ru_stime)};
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks ticks;
  // user nice system idle iowait irq softirq steal: guest time is already
  // counted in user and nice.
  for (int field = 0; field < 8 && cpu == "cpu"; field++) {
    uint64_t value = 0;
    if (!(in >> value)) {
      return {};
    }
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

double StealShare(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) {
    return 0;
  }
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<int> ChildPids() {
  std::vector<int> pids;
  const std::string self = std::to_string(getpid());
  DIR* dir = opendir("/proc");
  if (dir == nullptr) {
    return pids;
  }
  while (dirent* entry = readdir(dir)) {
    if (!std::isdigit(static_cast<unsigned char>(entry->d_name[0]))) {
      continue;
    }
    const int pid = std::atoi(entry->d_name);
    std::vector<std::string> fields = StatFields(pid);
    if (!fields.empty() && fields[1] == self) {
      pids.push_back(pid);
    }
  }
  closedir(dir);
  return pids;
}

CpuTimes PidsCpu(const std::vector<int>& pids) {
  const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  CpuTimes total;
  for (int pid : pids) {
    std::vector<std::string> fields = StatFields(pid);
    if (!fields.empty()) {
      total.user_s += std::stod(fields[11]) * tick;
      total.sys_s += std::stod(fields[12]) * tick;
    }
  }
  return total;
}

double PeakRssMb(int pid) {
  std::ifstream in("/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
                   "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

double PrivateResidentMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/smaps_rollup");
  double kb = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("Private_Clean:", 0) == 0 || line.rfind("Private_Dirty:", 0) == 0) {
      kb += std::stod(line.substr(line.find(':') + 1));
    }
  }
  return kb / 1024.0;
}

}  // namespace perfbench
