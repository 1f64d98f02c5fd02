// Transport: the abstract message-passing substrate of the DStress runtime.
//
// The paper's execution engine (§3.3/§3.6) runs every protocol role as its
// own party exchanging serialized byte strings. Which wire actually carries
// those bytes is a deployment decision — the prototype used one EC2 machine
// per bank — so the channel is an abstraction selected per run, never named
// by the algorithm layer: a run describes its wire with a
// net::TransportSpec (backend name + options, transport_spec.h) and
// MakeTransport resolves it through a registry. Two backends are built in:
//
//   "sim" — net::SimNetwork (sim_network.h): in-process queues, every
//           protocol party on its own thread;
//   "tcp" — net::TcpNetwork (tcp_network.h): one process per bank, messages
//           crossing real sockets as the length-prefixed
//           (from, to, session, payload) frames defined in wire.h.
//
// Every protocol layer (mpc/, ot/, transfer/, core/) is written against
// this interface, and both backends meter the same payload bytes, so a
// run's TrafficStats are identical whichever wire carries it.
//
// Semantics all implementations must provide:
//
//  * Channels are keyed by (from, to, session) and are FIFO: messages sent
//    on one channel arrive in send order. The session id keeps concurrent
//    protocol instances' streams isolated, playing the role of one TCP
//    connection per instance.
//  * Send never blocks (the worker pool's rule that no task waits on
//    another relies on this, worker_pool.h); Recv blocks until a message
//    is available.
//  * Every message is metered per sender and per receiver — payload bytes
//    only, never wire framing — so the paper's traffic figures (Figures 4,
//    5-right, 6-right, §5.3) are exact and backend-independent.
//  * A channel can be resolved once into a ChannelHandle (OpenChannel) and
//    then carry runs: one buffer holding several messages back to back plus
//    their boundaries (SendRun/RecvRun). A run is a way of moving messages,
//    not a message: every boundary, meter count, observer callback and
//    watermark check is the one SendBatch/RecvBatch of the same messages
//    gives, and runs mix freely with keyed calls on one channel.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"

namespace dstress::net {

using NodeId = int;
using SessionId = uint64_t;

struct TrafficStats {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
};

// Observes every message as it crosses the transport. OnSend runs right
// after the enqueue and OnRecv right after the dequeue, under the channel's
// synchronization, so per-channel observation order matches FIFO delivery
// order. Callbacks must be thread-safe across channels and must not call
// back into the transport. Used by the audit module (src/audit) to record
// transcripts.
class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;
  virtual void OnSend(NodeId from, NodeId to, SessionId session, const Bytes& payload) = 0;
  virtual void OnRecv(NodeId to, NodeId from, SessionId session, const Bytes& payload) = 0;
};

struct TransportOptions {
  // Upper bound on the bytes queued in any single (from, to, session)
  // channel; 0 = unbounded. Protocol rounds bound queue growth in a correct
  // run, so when a cap is set, exceeding it is a fatal CHECK — a runaway
  // protocol is caught at the offending Send instead of OOMing the process.
  // The check runs per message, for the messages of a SendBatch or a
  // SendRun exactly as for single Sends. Size the cap for a full round's
  // burst, not for a drain race: a batch or run is enqueued whole before
  // the receiver can dequeue, so a cap must accommodate the largest
  // coalesced burst a round emits. Note the batched MPC data plane
  // (core::Runtime's lockstep compute phase) sends a whole phase's
  // per-instance openings on one (from, to) channel per round as one run
  // — the per-channel burst there is the sum of every shared instance's
  // opening block, not one vertex's.
  size_t channel_high_watermark_bytes = 0;
};

// A backend's state for one resolved channel. Backends that resolve
// channels (ChannelDemuxTransport) derive their channel type from it.
struct ChannelState {};

// A (from, to, session) channel resolved once for many calls
// (Transport::OpenChannel). Valid only on the transport that opened it,
// for that transport's lifetime.
struct ChannelHandle {
  NodeId from = 0;
  NodeId to = 0;
  SessionId session = 0;
  // The opening backend's channel, or nullptr when the transport keeps the
  // keyed default (its runs then go through SendBatch/RecvBatch).
  ChannelState* state = nullptr;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_nodes() const = 0;

  // Attaches an observer (nullptr detaches). Only legal before any traffic
  // has crossed the transport: implementations must reject a late attach or
  // detach (the protocol worker threads would race the pointer swap).
  virtual void SetObserver(NetworkObserver* observer) = 0;

  // Enqueues a message on the (from, to, session) channel. Thread-safe and
  // never blocking.
  virtual void Send(NodeId from, NodeId to, Bytes message, SessionId session = 0) = 0;

  // Enqueues `messages` on the (from, to, session) channel with the exact
  // observable behavior of calling Send once per element, in order —
  // same FIFO boundaries, same per-message metering — but lets the backend
  // amortize its synchronization (lock acquisition, consumer wakeup) over
  // the whole batch. The default implementation just loops over Send.
  virtual void SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                         SessionId session = 0);

  // Dequeues the next message on the (from, to, session) channel in FIFO
  // order, blocking until one arrives.
  virtual Bytes Recv(NodeId to, NodeId from, SessionId session = 0) = 0;

  // Dequeues the next `count` messages of the channel with the exact
  // observable behavior of calling Recv `count` times — same FIFO order,
  // same per-message metering and observer callbacks — but lets the
  // backend amortize its synchronization over the burst (the receive-side
  // mirror of SendBatch). Blocks until all `count` have arrived. The
  // default implementation just loops over Recv.
  virtual std::vector<Bytes> RecvBatch(NodeId to, NodeId from, size_t count,
                                       SessionId session = 0);

  // Resolves the (from, to, session) channel once, for a caller that moves
  // many runs on it (the batched GMW exchange sends and receives one run
  // per channel per round). Opening a channel counts as traffic for the
  // observer rule: attach an observer before it. The default returns the
  // key alone, so a decorator that overrides only the keyed calls sees
  // every run as SendBatch/RecvBatch.
  virtual ChannelHandle OpenChannel(NodeId from, NodeId to, SessionId session = 0);

  // Enqueues a run on `channel`: sizes.size() messages lying back to back
  // in `data`, message i being sizes[i] bytes (data.size() is their sum).
  // Observably identical to SendBatch of the same messages: each message
  // is metered on its own, gets its own OnSend and its own watermark
  // check, and keeps its FIFO boundary under any mix of Send, SendBatch
  // and SendRun with Recv, RecvBatch and RecvRun on the channel. The
  // default splits the run and calls SendBatch.
  virtual void SendRun(const ChannelHandle& channel, const Bytes& data,
                       const std::vector<uint32_t>& sizes);

  // Dequeues the channel's next sizes.size() messages into *out, back to
  // back, blocking until all have arrived. Message i must be sizes[i]
  // bytes; a mismatch is a fatal CHECK (the receiver knows every boundary
  // of a protocol round). Otherwise observably identical to RecvBatch of
  // the same count. The transport may keep *out's old buffer and hand over
  // one of its own, so a caller that passes the same `out` every round
  // allocates nothing once sizes settle. The default calls RecvBatch.
  virtual void RecvRun(const ChannelHandle& channel, const std::vector<uint32_t>& sizes,
                       Bytes* out);

  virtual TrafficStats NodeStats(NodeId node) const = 0;
  virtual uint64_t TotalBytes() const = 0;
  virtual uint64_t MaxBytesPerNode() const = 0;
  virtual void ResetStats() = 0;

  // Bulk self-delivery metering (src/graphplane): a data plane that moves
  // per-edge payloads through its own memory arenas — bit-identical to
  // sending them — reports the skipped messages here as one TrafficStats
  // delta per node id, all applied atomically to the traffic counters.
  // Returns true when the deltas were applied, in which case the caller
  // must NOT also send the messages. The default refuses, and
  // implementations must refuse whenever per-message observation is
  // required (an attached NetworkObserver) or the wire is real (tcp): the
  // caller then falls back to literal per-message Send/Recv, so observers
  // and remote peers always see every message. Only the in-process "sim"
  // backend accepts.
  virtual bool MeterSelfDelivered(const std::vector<TrafficStats>& per_node_delta) {
    (void)per_node_delta;
    return false;
  }

  double AverageBytesPerNode() const {
    int n = num_nodes();
    return n > 0 ? static_cast<double>(TotalBytes()) / n : 0.0;
  }

  // --- HA surface (src/ha, docs/ha.md) -----------------------------------
  // Bytes of transport-internal fault-tolerance traffic (heartbeats, resume
  // handshakes, replayed frames). Excluded from the payload metering above,
  // so TrafficStats stay bit-identical between a fault-free run and one
  // that recovered from a fault.
  virtual uint64_t HaControlBytes() const { return 0; }

  // Completed session resumes: reconnects that replayed undelivered frames.
  virtual int HaResumeCount() const { return 0; }
};

// Implemented by transports that can inject deterministic faults into a
// live run; ha::FaultyTransport discovers it with a dynamic_cast. Both
// calls are asynchronous triggers: they start the fault and return, and
// the transport's HA machinery recovers on its own schedule.
class FaultInjectable {
 public:
  virtual ~FaultInjectable() = default;

  // SIGKILLs the spawned bank process (the bank must be driver-spawned).
  virtual void InjectNodeKill(NodeId node) = 0;

  // Severs the driver <-> bank socket; the bank itself stays up and is
  // expected to re-dial and resume its session.
  virtual void InjectLinkDrop(NodeId node) = 0;
};

}  // namespace dstress::net

#endif  // SRC_NET_TRANSPORT_H_
