// Shared channel-demultiplexing and metering core for queue-based
// Transport backends.
//
// SimNetwork and TcpNetwork differ only in how a sent message reaches the
// receiving channel's queue (directly under the channel lock vs. through
// per-bank processes and a reader thread). Everything else — the
// (from, to, session) channel map, blocking FIFO Recv with its OnRecv
// hook, per-node traffic counters, the high-watermark cap, and the
// attach-before-traffic observer rule — is semantics the two must share
// bit for bit, so it lives here exactly once and backends inherit it.
//
// Channel handles (OpenChannel) point straight at a channel's queue, so
// RecvRun (and SimNetwork's SendRun) skips the map and its shared_mutex. A
// queue entry is one message or one run: the messages of a SendRun back to
// back, then a table of their sizes, in one buffer. A receive takes the
// next messages in order whatever entries hold them: a Recv may split a
// run, a RecvRun may span several entries, and a RecvRun that matches a run
// entry whole takes its buffer. Each message is metered, observed and
// counted against the watermark on its own either way.
//
// Concurrency contract for derived Send paths: store traffic_started_
// before acquiring channels_mu_ (shared) and load observer_ under it. With
// SetObserver holding channels_mu_ exclusively, either the attach CHECK
// observes the started traffic and aborts, or the attach fully completes
// first and the send observes the new pointer — never a silently
// unobserved message. OpenChannel follows the same contract once for all
// of a handle's later sends, which is why opening a channel counts as
// traffic.
#ifndef SRC_NET_CHANNEL_DEMUX_H_
#define SRC_NET_CHANNEL_DEMUX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/net/transport.h"

namespace dstress::net {

class ChannelDemuxTransport : public Transport {
 public:
  ChannelDemuxTransport(int num_nodes, TransportOptions options);

  ChannelDemuxTransport(const ChannelDemuxTransport&) = delete;
  ChannelDemuxTransport& operator=(const ChannelDemuxTransport&) = delete;

  int num_nodes() const override { return num_nodes_; }

  // Attaches an observer (nullptr detaches). Attaching or detaching after
  // any message has crossed the transport is a fatal CHECK: the swap would
  // race the protocol worker threads (see transport.h).
  void SetObserver(NetworkObserver* observer) override;

  // Dequeues the next message on the (from, to, session) channel in FIFO
  // order, blocking until one arrives; runs the observer's OnRecv under the
  // channel lock.
  Bytes Recv(NodeId to, NodeId from, SessionId session = 0) override;

  // Batched Recv: drains `count` messages under one channel-lock
  // acquisition per wakeup instead of one per message, with per-message
  // metering and OnRecv callbacks identical to `count` single Recvs.
  std::vector<Bytes> RecvBatch(NodeId to, NodeId from, size_t count,
                               SessionId session = 0) override;

  // Resolves the channel's queue once (marking traffic as started, see
  // above); RecvRun drains through it. Sends through a handle are the
  // backend's business: SimNetwork enqueues a run as one entry, TcpNetwork
  // keeps the default (a SendBatch of per-message frames).
  ChannelHandle OpenChannel(NodeId from, NodeId to, SessionId session = 0) override;
  void RecvRun(const ChannelHandle& channel, const std::vector<uint32_t>& sizes,
               Bytes* out) override;

  TrafficStats NodeStats(NodeId node) const override;
  uint64_t TotalBytes() const override;
  uint64_t MaxBytesPerNode() const override;
  void ResetStats() override;

  // Declares `node` dead (failure detector verdict, or an injected kill on
  // the sim backend): every Recv/RecvBatch blocked on — or later reaching —
  // an empty channel to or from it aborts with `reason` instead of hanging
  // forever. Messages already queued still drain first, so a receiver that
  // is merely behind does not lose data.
  void DeclarePeerDead(NodeId node, const std::string& reason);

  bool PeerDead(NodeId node) const {
    return dead_peers_[static_cast<size_t>(node)]->load(std::memory_order_acquire);
  }

 protected:
  // One queue entry: a single message (Send, SendBatch, a tcp frame) or a
  // run of `count` > 1 messages (SimNetwork::SendRun) lying back to back in
  // `data`, followed by their sizes as `count` u32s.
  struct Entry {
    explicit Entry(Bytes message) : data(std::move(message)) {}
    // The run `payload` (sizes.size() > 1 messages, sizes summing to
    // payload.size()) and its size table, written into `buffer`, whose
    // capacity is reused.
    Entry(Bytes buffer, const Bytes& payload, const std::vector<uint32_t>& sizes);

    // Size of message i of the entry.
    size_t Size(uint32_t i) const {
      if (count == 1) {
        return data.size();
      }
      uint32_t size;
      std::memcpy(&size, data.data() + data.size() - 4 * (count - i), 4);
      return size;
    }

    Bytes data;
    uint32_t count = 1;
    uint32_t next = 0;   // messages already dequeued
    size_t offset = 0;   // byte offset of message `next` in data
  };

  struct Channel : ChannelState {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Entry> queue;
    size_t queued_bytes = 0;  // bytes of undelivered messages in `queue`
    // A buffer RecvRun handed back when it took a run entry whole; the
    // channel's next SendRun writes its run into it, so a channel that
    // carries one run per round stops allocating.
    Bytes spare;
  };

  struct PerNodeCounters {
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> bytes_received{0};
    std::atomic<uint64_t> messages_sent{0};
    std::atomic<uint64_t> messages_received{0};
  };

  struct ChannelKey {
    NodeId from;
    NodeId to;
    SessionId session;
    bool operator==(const ChannelKey& o) const {
      return from == o.from && to == o.to && session == o.session;
    }
  };
  struct ChannelKeyHash {
    size_t operator()(const ChannelKey& k) const {
      uint64_t h = static_cast<uint64_t>(k.from) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.to) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h ^= k.session + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  Channel& ChannelFor(const ChannelKey& key);
  // The channel behind a handle this transport opened.
  static Channel& Resolved(const ChannelHandle& handle) {
    DSTRESS_DCHECK(handle.state != nullptr);
    return *static_cast<Channel*>(handle.state);
  }
  // Dequeues the next message of a nonempty queue (under ch.mu): a single
  // message's buffer itself, or a copy of the next message of a run.
  static Bytes PopMessage(Channel& ch);
  // Moves the channel's next `count` messages into an empty *messages,
  // waiting on ch.cv with `lock` (held on ch.mu) as needed, aborting on a
  // dead peer, checking message i against (*sizes)[i] as it arrives when
  // sizes is given, and running OnRecv per message. Returns their bytes;
  // meters nothing.
  uint64_t TakeMessages(std::unique_lock<std::mutex>& lock, Channel& ch, NodeId to, NodeId from,
                        SessionId session, size_t count, const std::vector<uint32_t>* sizes,
                        std::vector<Bytes>* messages);
  void CheckWatermark(const Channel& ch) const;
  void MeterSend(NodeId from, uint64_t bytes, uint64_t messages);

  // Shared implementation behind Transport::MeterSelfDelivered, protected
  // so only backends that really keep payloads in-process expose it
  // (SimNetwork does; TcpNetwork must not — its peers live in other
  // processes and need the literal frames). Follows the Send-path observer
  // contract: traffic_started_ is stored before the observer is loaded
  // under the shared channels lock, so either an in-flight attach completes
  // first and this call refuses, or the attach CHECK sees started traffic.
  bool TryMeterSelfDelivered(const std::vector<TrafficStats>& per_node_delta);

  // True when the (from, to) pair touches a dead peer — the Recv wait
  // predicates wake on it and abort via AbortDeadPeer.
  bool PairDead(NodeId from, NodeId to) const { return PeerDead(from) || PeerDead(to); }
  [[noreturn]] void AbortDeadPeer(NodeId to, NodeId from, SessionId session) const;

  int num_nodes_;
  TransportOptions options_;
  // Atomic so a SetObserver that loses the race with the first Send is a
  // missed CHECK rather than undefined behavior.
  std::atomic<NetworkObserver*> observer_{nullptr};
  // Set on the first Send; SetObserver refuses to attach afterwards.
  std::atomic<bool> traffic_started_{false};
  std::shared_mutex channels_mu_;
  std::unordered_map<ChannelKey, std::unique_ptr<Channel>, ChannelKeyHash> channels_;
  std::vector<std::unique_ptr<PerNodeCounters>> counters_;

  // Dead-peer flags (unique_ptr so the vector of atomics can be built once
  // in the constructor) plus the human-readable reason for the abort.
  std::vector<std::unique_ptr<std::atomic<bool>>> dead_peers_;
  mutable std::mutex dead_reason_mu_;
  std::string dead_reason_;
};

}  // namespace dstress::net

#endif  // SRC_NET_CHANNEL_DEMUX_H_
