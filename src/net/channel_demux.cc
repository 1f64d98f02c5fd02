#include "src/net/channel_demux.h"

#include <cstdio>

#include "src/common/check.h"

namespace dstress::net {

ChannelDemuxTransport::ChannelDemuxTransport(int num_nodes, TransportOptions options)
    : num_nodes_(num_nodes), options_(options) {
  DSTRESS_CHECK(num_nodes > 0);
  counters_.reserve(num_nodes);
  dead_peers_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; i++) {
    counters_.push_back(std::make_unique<PerNodeCounters>());
    dead_peers_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

void ChannelDemuxTransport::DeclarePeerDead(NodeId node, const std::string& reason) {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  {
    std::lock_guard<std::mutex> lock(dead_reason_mu_);
    if (!dead_reason_.empty()) dead_reason_ += "; ";
    dead_reason_ += reason;
  }
  dead_peers_[static_cast<size_t>(node)]->store(true, std::memory_order_release);
  // Wake every parked receiver so its predicate re-checks the dead flags.
  std::shared_lock<std::shared_mutex> read(channels_mu_);
  for (auto& entry : channels_) {
    std::lock_guard<std::mutex> lock(entry.second->mu);
    entry.second->cv.notify_all();
  }
}

void ChannelDemuxTransport::AbortDeadPeer(NodeId to, NodeId from, SessionId session) const {
  std::string reason;
  {
    std::lock_guard<std::mutex> lock(dead_reason_mu_);
    reason = dead_reason_;
  }
  std::fprintf(stderr,
               "transport: Recv(to=%d, from=%d, session=%llu) woke on a dead peer with no "
               "message to deliver: %s\n",
               to, from, static_cast<unsigned long long>(session),
               reason.empty() ? "peer declared dead" : reason.c_str());
  DSTRESS_CHECK(false);
  std::abort();  // DSTRESS_CHECK(false) never returns; this placates [[noreturn]]
}

void ChannelDemuxTransport::SetObserver(NetworkObserver* observer) {
  // Attach and detach both swap a pointer the protocol threads read, so
  // neither is legal once traffic has started. The exclusive channels lock
  // serializes this against in-flight sends: a Send marks traffic_started_
  // before it takes the shared lock, so either that Send's lock acquisition
  // happens first (the CHECK below fires) or the attach completes first
  // (the Send observes the new pointer) — never a silently missed message.
  std::unique_lock<std::shared_mutex> lock(channels_mu_);
  DSTRESS_CHECK(!traffic_started_.load(std::memory_order_acquire));
  observer_.store(observer, std::memory_order_release);
}

ChannelDemuxTransport::Entry::Entry(Bytes buffer, const Bytes& payload,
                                    const std::vector<uint32_t>& sizes)
    : data(std::move(buffer)), count(static_cast<uint32_t>(sizes.size())) {
  DSTRESS_CHECK(sizes.size() > 1 && sizes.size() <= UINT32_MAX);
  data.assign(payload.begin(), payload.end());
  const auto* table = reinterpret_cast<const uint8_t*>(sizes.data());
  data.insert(data.end(), table, table + 4 * sizes.size());
}

Bytes ChannelDemuxTransport::PopMessage(Channel& ch) {
  Entry& front = ch.queue.front();
  const size_t size = front.Size(front.next);
  Bytes msg;
  if (front.count == 1) {
    msg = std::move(front.data);
  } else {
    const uint8_t* begin = front.data.data() + front.offset;
    msg.assign(begin, begin + size);
  }
  front.offset += size;
  if (++front.next == front.count) {
    ch.queue.pop_front();
  }
  ch.queued_bytes -= size;
  return msg;
}

ChannelDemuxTransport::Channel& ChannelDemuxTransport::ChannelFor(const ChannelKey& key) {
  {
    std::shared_lock<std::shared_mutex> read(channels_mu_);
    auto it = channels_.find(key);
    if (it != channels_.end()) {
      return *it->second;
    }
  }
  std::unique_lock<std::shared_mutex> write(channels_mu_);
  auto [it, _] = channels_.try_emplace(key, std::make_unique<Channel>());
  return *it->second;
}

void ChannelDemuxTransport::CheckWatermark(const Channel& ch) const {
  if (options_.channel_high_watermark_bytes > 0) {
    DSTRESS_CHECK(ch.queued_bytes <= options_.channel_high_watermark_bytes);
  }
}

void ChannelDemuxTransport::MeterSend(NodeId from, uint64_t bytes, uint64_t messages) {
  counters_[from]->bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  counters_[from]->messages_sent.fetch_add(messages, std::memory_order_relaxed);
}

bool ChannelDemuxTransport::TryMeterSelfDelivered(
    const std::vector<TrafficStats>& per_node_delta) {
  DSTRESS_CHECK(per_node_delta.size() == static_cast<size_t>(num_nodes_));
  traffic_started_.store(true, std::memory_order_release);
  {
    // An attached observer must see every message individually; refuse so
    // the caller falls back to literal sends. The shared lock orders this
    // against SetObserver exactly like a Send (see SetObserver).
    std::shared_lock<std::shared_mutex> read(channels_mu_);
    if (observer_.load(std::memory_order_acquire) != nullptr) {
      return false;
    }
  }
  for (int v = 0; v < num_nodes_; v++) {
    const TrafficStats& d = per_node_delta[static_cast<size_t>(v)];
    PerNodeCounters& c = *counters_[static_cast<size_t>(v)];
    c.bytes_sent.fetch_add(d.bytes_sent, std::memory_order_relaxed);
    c.bytes_received.fetch_add(d.bytes_received, std::memory_order_relaxed);
    c.messages_sent.fetch_add(d.messages_sent, std::memory_order_relaxed);
    c.messages_received.fetch_add(d.messages_received, std::memory_order_relaxed);
  }
  return true;
}

Bytes ChannelDemuxTransport::Recv(NodeId to, NodeId from, SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  Channel& ch = ChannelFor(ChannelKey{from, to, session});
  Bytes msg;
  {
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&] { return !ch.queue.empty() || PairDead(from, to); });
    if (ch.queue.empty()) {
      AbortDeadPeer(to, from, session);
    }
    // Loaded after the wait: a Recv parked before an (otherwise legal)
    // pre-traffic attach must still record its OnRecv.
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    msg = PopMessage(ch);
    if (observer != nullptr) {
      observer->OnRecv(to, from, session, msg);
    }
  }
  counters_[to]->bytes_received.fetch_add(msg.size(), std::memory_order_relaxed);
  counters_[to]->messages_received.fetch_add(1, std::memory_order_relaxed);
  return msg;
}

uint64_t ChannelDemuxTransport::TakeMessages(std::unique_lock<std::mutex>& lock, Channel& ch,
                                             NodeId to, NodeId from, SessionId session,
                                             size_t count, const std::vector<uint32_t>* sizes,
                                             std::vector<Bytes>* messages) {
  uint64_t bytes = 0;
  while (messages->size() < count) {
    ch.cv.wait(lock, [&] { return !ch.queue.empty() || PairDead(from, to); });
    if (ch.queue.empty()) {
      AbortDeadPeer(to, from, session);
    }
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    while (!ch.queue.empty() && messages->size() < count) {
      Bytes msg = PopMessage(ch);
      if (sizes != nullptr) {
        DSTRESS_CHECK(msg.size() == (*sizes)[messages->size()]);
      }
      if (observer != nullptr) {
        observer->OnRecv(to, from, session, msg);
      }
      bytes += msg.size();
      messages->push_back(std::move(msg));
    }
  }
  return bytes;
}

std::vector<Bytes> ChannelDemuxTransport::RecvBatch(NodeId to, NodeId from, size_t count,
                                                    SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  std::vector<Bytes> messages;
  if (count == 0) {
    return messages;
  }
  messages.reserve(count);
  Channel& ch = ChannelFor(ChannelKey{from, to, session});
  uint64_t bytes = 0;
  {
    std::unique_lock<std::mutex> lock(ch.mu);
    bytes = TakeMessages(lock, ch, to, from, session, count, /*sizes=*/nullptr, &messages);
  }
  counters_[to]->bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  counters_[to]->messages_received.fetch_add(count, std::memory_order_relaxed);
  return messages;
}

ChannelHandle ChannelDemuxTransport::OpenChannel(NodeId from, NodeId to, SessionId session) {
  DSTRESS_CHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  // Stored before ChannelFor takes the shared lock, as a Send would (see
  // SetObserver): every send through the handle is then ordered after any
  // attach that this call did not abort.
  traffic_started_.store(true, std::memory_order_release);
  return ChannelHandle{from, to, session, &ChannelFor(ChannelKey{from, to, session})};
}

void ChannelDemuxTransport::RecvRun(const ChannelHandle& channel,
                                    const std::vector<uint32_t>& sizes, Bytes* out_buffer) {
  Bytes& out = *out_buffer;
  out.clear();
  const NodeId to = channel.to;
  const NodeId from = channel.from;
  const size_t count = sizes.size();
  if (count == 0) {
    return;
  }
  uint64_t total = 0;
  for (uint32_t size : sizes) {
    total += size;
  }
  Channel& ch = Resolved(channel);
  std::vector<Bytes> messages;
  {
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&] { return !ch.queue.empty() || PairDead(from, to); });
    if (ch.queue.empty()) {
      AbortDeadPeer(to, from, channel.session);
    }
    Entry& front = ch.queue.front();
    if (front.next == 0 && front.count == count) {
      // The entry is exactly this run: check its boundaries and hand its
      // buffer over, size table cut off, keeping the caller's old buffer
      // as the channel's spare.
      NetworkObserver* observer = observer_.load(std::memory_order_acquire);
      size_t offset = 0;
      for (uint32_t i = 0; i < front.count; i++) {
        const size_t size = front.Size(i);
        DSTRESS_CHECK(size == sizes[i]);
        if (observer != nullptr) {
          const uint8_t* begin = front.data.data() + offset;
          observer->OnRecv(to, from, channel.session, Bytes(begin, begin + size));
        }
        offset += size;
      }
      out.swap(front.data);
      out.resize(total);
      ch.spare = std::move(front.data);
      ch.queue.pop_front();
      ch.queued_bytes -= total;
    } else {
      // The run's messages lie in several entries (tcp frames, or runs
      // mixed with keyed sends): take them as RecvBatch does, buffers moved
      // out under the lock, and copy and free them after it, so the
      // channel's writer (a tcp reader thread) is not held up.
      messages.reserve(count);
      TakeMessages(lock, ch, to, from, channel.session, count, &sizes, &messages);
    }
  }
  if (!messages.empty()) {
    out.reserve(total);
    for (const Bytes& message : messages) {
      out.insert(out.end(), message.begin(), message.end());
    }
  }
  counters_[to]->bytes_received.fetch_add(total, std::memory_order_relaxed);
  counters_[to]->messages_received.fetch_add(count, std::memory_order_relaxed);
}

TrafficStats ChannelDemuxTransport::NodeStats(NodeId node) const {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  const PerNodeCounters& c = *counters_[node];
  TrafficStats s;
  s.bytes_sent = c.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = c.bytes_received.load(std::memory_order_relaxed);
  s.messages_sent = c.messages_sent.load(std::memory_order_relaxed);
  s.messages_received = c.messages_received.load(std::memory_order_relaxed);
  return s;
}

uint64_t ChannelDemuxTransport::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& c : counters_) {
    total += c->bytes_sent.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ChannelDemuxTransport::MaxBytesPerNode() const {
  uint64_t max_bytes = 0;
  for (const auto& c : counters_) {
    uint64_t b = c->bytes_sent.load(std::memory_order_relaxed) +
                 c->bytes_received.load(std::memory_order_relaxed);
    if (b > max_bytes) {
      max_bytes = b;
    }
  }
  return max_bytes;
}

void ChannelDemuxTransport::ResetStats() {
  for (auto& c : counters_) {
    c->bytes_sent.store(0, std::memory_order_relaxed);
    c->bytes_received.store(0, std::memory_order_relaxed);
    c->messages_sent.store(0, std::memory_order_relaxed);
    c->messages_received.store(0, std::memory_order_relaxed);
  }
}

}  // namespace dstress::net
