// TransportSpec + the transport registry: how a deployment chooses the wire
// its run crosses.
//
// A TransportSpec names a backend plus its options; MakeTransport resolves
// the name — first against factories installed with RegisterTransport (test
// doubles, out-of-tree backends), then against the built-ins:
//
//   "sim" — net::SimNetwork, the in-process backend (sim_network.h);
//   "tcp" — net::TcpNetwork, one process per bank exchanging wire.h frames
//           over real sockets (tcp_network.h).
//
// Nothing outside src/net names a concrete transport type: the scheduler
// (core::RuntimeConfig), the engine (engine::RunSpec) and the CLI
// (`transport` directive) all carry a TransportSpec and call MakeTransport.
#ifndef SRC_NET_TRANSPORT_SPEC_H_
#define SRC_NET_TRANSPORT_SPEC_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/net/wire.h"

namespace dstress::net {

// Knobs for the fault-tolerance layer (src/ha, docs/ha.md). Only the TCP
// backend acts on them; the sim backend has no sockets to lose.
struct HaSpec {
  // Master switch: heartbeats, session resume, kept-open rendezvous.
  bool enabled = false;
  // Driver -> bank heartbeat period.
  int heartbeat_ms = 250;
  // Silence thresholds of the failure detector (ha::FailureDetector).
  int suspect_after_ms = 1000;
  int dead_after_ms = 3000;
  // How long a bank may stay dead before the run is declared lost and
  // blocked receivers abort instead of waiting forever.
  int resume_timeout_ms = 15000;
  // Cap on buffered undelivered frames kept for replay; overflow aborts.
  size_t resume_buffer_bytes = size_t{256} << 20;
  // Respawn a crashed driver-spawned bank with --resume. Requires
  // node_program (a forked in-library node cannot be re-exec'd).
  bool auto_respawn = true;
};

// One scripted fault for ha::FaultyTransport (`transport faulty`): fire
// `action` when the wrapped transport's cumulative send count reaches
// `after_sends`. Deterministic by construction — send counts, unlike
// timers, are identical across runs of the same scenario.
struct FaultSpec {
  enum class Action { kKillNode, kDropLink, kDelay };
  Action action = Action::kDelay;
  int node = 0;            // target bank (kKillNode / kDropLink)
  uint64_t after_sends = 0;
  int delay_ms = 0;        // kDelay: stall the offending Send this long
};

struct TransportSpec {
  // Registry key; see KnownTransportBackends().
  std::string backend = "sim";

  // Semantics shared by every backend (channel high-watermark cap).
  TransportOptions options;

  // --- "tcp" backend only ------------------------------------------------
  // Rendezvous address the per-bank processes dial. Port 0 = OS-assigned
  // (only usable when this driver spawns the nodes itself; external_nodes
  // deployments need a port the operators can be told in advance).
  std::string host = "127.0.0.1";
  int port = 0;
  // Interface the driver binds its rendezvous listener on; empty = host.
  // A multi-machine driver typically binds "0.0.0.0" here while `host`
  // stays the address spawned/locally-started nodes dial.
  std::string listen_host;
  // Address written into locally spawned nodes' --driver flag; empty =
  // host. Only matters when listen_host is a wildcard and the spawned
  // nodes must dial a concrete address.
  std::string advertise_host;
  // Multi-machine mode: spawn nothing and instead wait for num_nodes
  // externally started dstress_node processes (one per bank, possibly on
  // other machines) to dial the rendezvous and register. See
  // docs/scenario-format.md ("node" directive).
  bool external_nodes = false;
  // external_nodes only: the expected advertised endpoint per bank, from
  // the scenario's `node` directives. An empty host accepts any; a port of
  // 0 accepts any. A registration that contradicts this table aborts the
  // bootstrap (a mis-wired deployment fails at rendezvous, not mid-run).
  std::vector<PeerEndpoint> node_endpoints;
  // Path to a dstress_node binary to spawn one-per-bank; empty = fork the
  // in-library node loop directly (the test/CI default). Ignored when
  // external_nodes is set.
  std::string node_program;
  int bootstrap_timeout_ms = 30000;

  // --- HA layer (src/ha) --------------------------------------------------
  HaSpec ha;

  // --- "faulty" backend only (ha::FaultyTransport) ------------------------
  // The real backend the fault-injection wrapper decorates ("sim"/"tcp")
  // and the scripted fault schedule it fires.
  std::string faulty_inner = "sim";
  std::vector<FaultSpec> faults;
};

// Convenience constructors, mirroring the topology helpers in run_spec.h.
TransportSpec SimTransportSpec();
TransportSpec TcpTransportSpec(std::string host = "127.0.0.1", int port = 0);

// A ready-to-use in-process transport — the one-liner for microbenchmarks
// and baselines that just need a default metered wire.
std::unique_ptr<Transport> MakeSimTransport(int num_nodes);

using TransportFactory =
    std::function<std::unique_ptr<Transport>(int num_nodes, const TransportSpec& spec)>;

// Installs (or replaces) the factory for `backend` process-wide.
// Thread-safe. Registering a built-in name overrides it.
void RegisterTransport(const std::string& backend, TransportFactory factory);

// Drops an installed factory; built-in names fall back to the built-in.
void ResetTransport(const std::string& backend);

// True if MakeTransport can resolve `backend` (built-in or registered).
bool KnownTransportBackend(const std::string& backend);

// Every currently resolvable backend name, built-ins first.
std::vector<std::string> KnownTransportBackends();

// Instantiates the transport `spec` describes for `num_nodes` banks.
// Aborts on an unknown backend (validate scenario input upstream with
// KnownTransportBackend).
std::unique_ptr<Transport> MakeTransport(const TransportSpec& spec, int num_nodes);

}  // namespace dstress::net

#endif  // SRC_NET_TRANSPORT_SPEC_H_
