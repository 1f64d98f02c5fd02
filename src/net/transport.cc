#include "src/net/transport.h"

#include "src/common/check.h"

namespace dstress::net {

void Transport::SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                          SessionId session) {
  for (auto& message : messages) {
    Send(from, to, std::move(message), session);
  }
}

std::vector<Bytes> Transport::RecvBatch(NodeId to, NodeId from, size_t count,
                                        SessionId session) {
  std::vector<Bytes> messages;
  messages.reserve(count);
  for (size_t i = 0; i < count; i++) {
    messages.push_back(Recv(to, from, session));
  }
  return messages;
}

ChannelHandle Transport::OpenChannel(NodeId from, NodeId to, SessionId session) {
  return ChannelHandle{from, to, session, nullptr};
}

void Transport::SendRun(const ChannelHandle& channel, const Bytes& data,
                        const std::vector<uint32_t>& sizes) {
  std::vector<Bytes> messages;
  messages.reserve(sizes.size());
  size_t offset = 0;
  for (uint32_t size : sizes) {
    DSTRESS_CHECK(size <= data.size() - offset);
    messages.emplace_back(data.begin() + offset, data.begin() + offset + size);
    offset += size;
  }
  DSTRESS_CHECK(offset == data.size());
  if (!messages.empty()) {
    SendBatch(channel.from, channel.to, std::move(messages), channel.session);
  }
}

void Transport::RecvRun(const ChannelHandle& channel, const std::vector<uint32_t>& sizes,
                        Bytes* out) {
  out->clear();
  if (sizes.empty()) {
    return;
  }
  std::vector<Bytes> messages = RecvBatch(channel.to, channel.from, sizes.size(), channel.session);
  for (size_t i = 0; i < sizes.size(); i++) {
    DSTRESS_CHECK(messages[i].size() == sizes[i]);
    out->insert(out->end(), messages[i].begin(), messages[i].end());
  }
}

}  // namespace dstress::net
