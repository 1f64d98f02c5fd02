// TCP multi-process transport: the deployment-shaped Transport backend
// ("tcp" in the transport registry, transport_spec.h).
//
// The paper ran one party per EC2 machine exchanging serialized byte
// strings; TcpNetwork reproduces that process boundary on one machine. The
// driver process (whoever constructed this object — the engine's secure or
// cleartext backend) spawns one process per bank (forking the node loop in
// tcp_node.h, or spawning a dstress_node binary when
// TransportSpec::node_program is set), rendezvouses them into a full TCP
// mesh, and then every Send travels as a wire.h frame:
//
//   driver --> bank `from` process --> bank `to` process --> driver
//
// so each message genuinely crosses its sender's and receiver's processes.
// Delivered frames are demultiplexed into the per-(from, to, session) FIFO
// queues of the shared channel_demux.h core, whose Recv/stats/observer
// semantics this backend inherits — which is what keeps a run's per-node
// TrafficStats bit-identical to the same run over SimNetwork (payload
// bytes at Send, payload bytes at Recv, frame overhead excluded; asserted
// in engine_test.cc).
//
//  * Send never blocks: frames go onto a per-bank FrameWriterQueue drained
//    by a dedicated writer thread, regardless of TCP backpressure.
//  * FIFO per channel: a channel's frames follow one fixed socket path
//    (driver->from, from->to, to->driver), each hop order-preserving.
//  * Observer: OnSend fires at Send (the per-bank send lock orders it with
//    the wire; a shared lock on the core's channels_mu_ serializes it
//    against SetObserver exactly as in SimNetwork), OnRecv at Recv.
//  * The high-watermark cap bounds bytes delivered to a channel but not yet
//    Recv'd (frames still inside the socket path are not counted).
//  * Runs (transport.h): SendRun keeps the base-class decomposition, one
//    frame per message through SendBatch (wire v3 unchanged, no run frame);
//    RecvRun drains the delivered frames through the channel handle.
//
// Spawn modes: with node_program unset the constructor fork()s the node
// loop without exec. The children run regular (non-async-signal-safe) code,
// which glibc supports after fork but POSIX leaves undefined if other
// threads exist at fork time — the runtime constructs its transport before
// its worker pool for exactly this reason, and callers holding long-lived
// thread pools should prefer the exec mode (node_program =
// examples/dstress_node), which is the real deployment shape anyway.
//
// Multi-machine mode (TransportSpec::external_nodes): the constructor
// spawns nothing and instead waits for num_nodes externally started
// dstress_node processes — on this machine or others — to dial the
// rendezvous at host:port and register. The PEERS reply carries each
// bank's advertised (host, port), so the mesh forms across machines; the
// optional node_endpoints table pins where each bank must be. Bootstrap
// failures (a bank that never dials in, a duplicate registration, a
// version mismatch, a misplaced bank) abort with a message naming the
// offending bank instead of hanging.
//
// HA mode (TransportSpec::ha.enabled, docs/ha.md): the driver anchors the
// fault-tolerance layer. Every data payload is prefixed with a per-channel
// sequence number and the encoded frame is kept in a bounded retransmit
// buffer (ha::ResumeLog) until the frame is observed back at the driver —
// driver receipt is end-to-end delivery proof, since every frame's last
// hop lands here. A monitor thread heartbeats every bank and runs the
// failure detector; an acceptor thread keeps the rendezvous listener open
// and resumes a re-dialing bank's session: retire the old socket, replay
// every undelivered frame touching that bank, splice in the new socket.
// The sequence cursor makes redelivery exactly-once, so recovered runs
// release figures and per-node TrafficStats bit-identical to fault-free
// runs (HA control traffic and replays are metered separately, in
// HaControlBytes).
#ifndef SRC_NET_TCP_NETWORK_H_
#define SRC_NET_TCP_NETWORK_H_

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/ha/failure_detector.h"
#include "src/ha/resume.h"
#include "src/net/channel_demux.h"
#include "src/net/tcp_socket.h"
#include "src/net/transport.h"
#include "src/net/transport_spec.h"

namespace dstress::net {

class TcpNetwork : public ChannelDemuxTransport, public FaultInjectable {
 public:
  // Spawns the bank processes and completes the bootstrap handshake;
  // returns with the mesh established. Aborts if a bank fails to rendezvous
  // within spec.bootstrap_timeout_ms.
  TcpNetwork(int num_nodes, const TransportSpec& spec);
  ~TcpNetwork() override;

  // Enqueues the frame on the sending bank's writer queue. Thread-safe;
  // never blocks.
  void Send(NodeId from, NodeId to, Bytes message, SessionId session = 0) override;

  // Batched Send: identical FIFO boundaries and metering, one writer-queue
  // handoff for the whole run.
  void SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                 SessionId session = 0) override;

  uint64_t HaControlBytes() const override {
    return ha_control_bytes_.load(std::memory_order_relaxed);
  }
  int HaResumeCount() const override { return ha_resumes_.load(std::memory_order_relaxed); }

  // FaultInjectable (ha::FaultyTransport): both require HA mode, since
  // without it nobody recovers.
  void InjectNodeKill(NodeId node) override;
  void InjectLinkDrop(NodeId node) override;

 private:
  // One bank process: its driver-side socket, outgoing writer queue, and
  // the reader thread delivering its inbound frames. `out` is a pointer
  // because a writer queue whose peer vanished is permanently quiet — a
  // session resume installs a fresh queue (under channels_mu_ exclusive)
  // rather than reviving the old one.
  struct Link {
    int fd = -1;
    std::atomic<pid_t> pid{-1};
    // Orders OnSend callbacks with the enqueue, per sending bank.
    std::mutex send_mu;
    std::unique_ptr<FrameWriterQueue> out;
    FrameDecoder decoder;  // bootstrap only; moved into the reader thread
    std::thread reader;
    // HA: the reader saw EOF mid-run and the link awaits a session resume.
    std::atomic<bool> down{false};
    bool respawned = false;  // monitor thread only
  };

  void SpawnNodes(const TransportSpec& spec, int listen_fd, int rendezvous_port);
  // Exec-mode spawn of one dstress_node (initial bootstrap and HA respawn).
  pid_t SpawnNodeProcess(NodeId node, bool resume) const;
  void StartReader(NodeId bank);
  void ReaderLoop(NodeId bank, int fd, FrameDecoder decoder);

  // HA threads (spec.ha.enabled only).
  void MonitorLoop();
  void AcceptorLoop();
  // Retires bank `node`'s old session and splices in the freshly accepted
  // socket `fd`, replaying every undelivered frame that touches the bank.
  void HandleResume(NodeId node, const PeerEndpoint& endpoint, int fd, FrameDecoder decoder);

  std::atomic<bool> shutting_down_{false};
  std::vector<std::unique_ptr<Link>> links_;

  // --- HA state (docs/ha.md) ---------------------------------------------
  bool ha_ = false;
  TransportSpec spec_;       // respawn + HA knobs
  std::string dial_host_;    // address spawned nodes dial
  int rendezvous_port_ = 0;
  int listen_fd_ = -1;       // kept open for session resumes (HA only)
  std::vector<PeerEndpoint> endpoints_;
  std::thread monitor_;
  std::thread acceptor_;
  std::atomic<uint64_t> ha_control_bytes_{0};
  std::atomic<int> ha_resumes_{0};
  // Guards the resume log and failure detector. Lock order:
  // channels_mu_ (shared) -> Link::send_mu -> ha_mu_.
  std::mutex ha_mu_;
  std::unique_ptr<ha::ResumeLog> resume_log_;
  std::unique_ptr<ha::FailureDetector> detector_;
};

}  // namespace dstress::net

#endif  // SRC_NET_TCP_NETWORK_H_
