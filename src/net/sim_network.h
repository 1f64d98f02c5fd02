// In-process simulated network: the first Transport backend ("sim" in the
// transport registry, transport_spec.h).
//
// The paper evaluates DStress on EC2 with one machine per bank; this
// backend substitutes an in-process transport where every protocol party
// runs on its own thread and exchanges the *same serialized byte strings*
// it would send over TCP. Two consequences matter for the reproduction:
//
//  * traffic numbers (Figures 4, 5-right, 6-right and the §5.3 message-
//    transfer measurements) are exact — every Send() is metered per sender
//    and per receiver;
//  * timing numbers keep the paper's *shape* (how costs scale in block size,
//    degree, N) while absolute values reflect local compute rather than LAN
//    latency.
//
// Channels are keyed by (from, to, session); see transport.h for the
// FIFO/session semantics and channel_demux.h for the shared queue/metering
// core (Recv, RecvRun, stats, observer rule) this backend inherits.
// SendRun is the batched GMW exchange's path (mpc/batch_eval.h): through a
// channel handle resolved once per call, one round's openings for a peer
// become one queue entry — the payload and its size table in one buffer —
// under one lock acquisition and one consumer wakeup. The receiver's
// RecvRun takes that buffer over whole and leaves its previous one as the
// channel's spare, which the next SendRun fills, so the rounds of a call
// allocate nothing once buffer sizes settle. SendBatch amortizes the lock
// and wakeup the same way but queues one entry per message.
#ifndef SRC_NET_SIM_NETWORK_H_
#define SRC_NET_SIM_NETWORK_H_

#include <vector>

#include "src/common/bytes.h"
#include "src/net/channel_demux.h"
#include "src/net/transport.h"

namespace dstress::net {

class SimNetwork : public ChannelDemuxTransport {
 public:
  explicit SimNetwork(int num_nodes, TransportOptions options = {})
      : ChannelDemuxTransport(num_nodes, options) {}

  // Enqueues a message on the (from, to, session) channel. Thread-safe;
  // never blocks. Queues are unbounded unless
  // TransportOptions::channel_high_watermark_bytes is set, in which case
  // exceeding the cap on any single channel aborts.
  void Send(NodeId from, NodeId to, Bytes message, SessionId session = 0) override;

  // Batched Send: identical FIFO boundaries and metering, one lock
  // acquisition and one consumer wakeup for the whole batch.
  void SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                 SessionId session = 0) override;

  // Run send (transport.h) through a handle from OpenChannel: one queue
  // entry for the whole run, with per-message OnSend, metering and
  // watermark checks identical to SendBatch.
  void SendRun(const ChannelHandle& channel, const Bytes& data,
               const std::vector<uint32_t>& sizes) override;

  // Bulk self-delivery metering (transport.h): payloads that the arena
  // graph plane moved through its own memory never leave the process on
  // this backend, so metering the per-node deltas is observably identical
  // to sending and receiving every message. Refuses when an observer is
  // attached (it must see per-message callbacks); the caller then falls
  // back to literal sends.
  bool MeterSelfDelivered(const std::vector<TrafficStats>& per_node_delta) override {
    return TryMeterSelfDelivered(per_node_delta);
  }
};

}  // namespace dstress::net

#endif  // SRC_NET_SIM_NETWORK_H_
