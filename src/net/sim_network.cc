#include "src/net/sim_network.h"

#include "src/common/check.h"

namespace dstress::net {

void SimNetwork::Send(NodeId from, NodeId to, Bytes message, SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  traffic_started_.store(true, std::memory_order_release);
  size_t len = message.size();
  Channel& ch = ChannelFor(ChannelKey{from, to, session});
  {
    std::lock_guard<std::mutex> lock(ch.mu);
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    if (observer != nullptr) {
      observer->OnSend(from, to, session, message);
    }
    ch.queued_bytes += len;
    ch.queue.emplace_back(std::move(message));
    CheckWatermark(ch);
  }
  ch.cv.notify_one();
  MeterSend(from, len, 1);
}

void SimNetwork::SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                           SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  if (messages.empty()) {
    return;
  }
  traffic_started_.store(true, std::memory_order_release);
  uint64_t total_len = 0;
  size_t count = messages.size();
  Channel& ch = ChannelFor(ChannelKey{from, to, session});
  {
    std::lock_guard<std::mutex> lock(ch.mu);
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    for (auto& message : messages) {
      if (observer != nullptr) {
        observer->OnSend(from, to, session, message);
      }
      total_len += message.size();
      ch.queued_bytes += message.size();
      ch.queue.emplace_back(std::move(message));
      // Per message, exactly as repeated Send would check it.
      CheckWatermark(ch);
    }
  }
  ch.cv.notify_all();
  MeterSend(from, total_len, count);
}

void SimNetwork::SendRun(const ChannelHandle& channel, const Bytes& data,
                         const std::vector<uint32_t>& sizes) {
  const size_t count = sizes.size();
  if (count == 0) {
    DSTRESS_CHECK(data.empty());
    return;
  }
  Channel& ch = Resolved(channel);
  {
    std::lock_guard<std::mutex> lock(ch.mu);
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    size_t offset = 0;
    for (uint32_t size : sizes) {
      DSTRESS_CHECK(size <= data.size() - offset);
      if (observer != nullptr) {
        const uint8_t* begin = data.data() + offset;
        observer->OnSend(channel.from, channel.to, channel.session, Bytes(begin, begin + size));
      }
      offset += size;
      ch.queued_bytes += size;
      // Per message, exactly as SendBatch checks it.
      CheckWatermark(ch);
    }
    DSTRESS_CHECK(offset == data.size());
    // The run goes into the channel's spare buffer; a run of one message is
    // queued as that message.
    if (count == 1) {
      Bytes buffer = std::move(ch.spare);
      buffer.assign(data.begin(), data.end());
      ch.queue.emplace_back(std::move(buffer));
    } else {
      ch.queue.emplace_back(std::move(ch.spare), data, sizes);
    }
  }
  ch.cv.notify_all();
  MeterSend(channel.from, data.size(), count);
}

}  // namespace dstress::net
