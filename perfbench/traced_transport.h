// A timing decorator over net::Transport for the benchmark's traced runs.
//
// RegisterTracedTransports() installs the registry backends "traced-sim"
// and "traced-tcp". Each builds the real "sim" / "tcp" transport through
// net::MakeTransport and forwards every public call to it unchanged, so a
// traced run releases the same figures and meters the same TrafficStats as
// an untraced one. Around each call it records, per calling thread and per
// session namespace (the top 4 bits of the session id):
//
//   send_calls  Send + SendBatch calls
//   msgs, bytes messages and payload bytes handed to Send/SendBatch
//   send_ns     time inside Send/SendBatch
//   recv_ns     time inside Recv/RecvBatch (blocked or draining)
//
// plus the number of MeterSelfDelivered calls (graph-plane bulk metering).
// A decorator is used instead of a NetworkObserver because an attached
// observer makes the sim backend refuse bulk metering, which would push the
// graph plane onto per-edge sends and change what is measured.
//
// Counters live in per-thread blocks that only their owning thread writes,
// so the hot path takes no lock; NetCounters::Snapshot() merges every block
// ever created, and the benchmark diffs two snapshots around a run.
#ifndef PERFBENCH_TRACED_TRANSPORT_H_
#define PERFBENCH_TRACED_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <string>

namespace perfbench {

inline constexpr int kNamespaces = 16;

struct NamespaceCounters {
  uint64_t send_calls = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
};

struct NetCounters {
  std::array<NamespaceCounters, kNamespaces> ns{};
  uint64_t bulk_meter_calls = 0;

  // Sum over namespaces.
  NamespaceCounters Total() const;
  // this - before, field by field.
  NetCounters Minus(const NetCounters& before) const;
  // Merged counters of every thread that ever called a traced transport.
  static NetCounters Snapshot();
};

// Registers "traced-sim" and "traced-tcp" with net::RegisterTransport.
void RegisterTracedTransports();

// "traced-" + backend.
std::string TracedBackendName(const std::string& backend);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_TRANSPORT_H_
