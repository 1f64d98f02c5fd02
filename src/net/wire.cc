#include "src/net/wire.h"

#include <cstdio>
#include <cstring>

#include "src/common/check.h"

namespace dstress::net {

void AppendFrame(const WireFrame& frame, Bytes* out) {
  DSTRESS_CHECK(frame.payload.size() <= kMaxWirePayload);
  uint32_t length = static_cast<uint32_t>(16 + frame.payload.size());
  size_t at = out->size();
  out->resize(at + 4 + length);
  uint8_t* p = out->data() + at;
  uint32_t from = static_cast<uint32_t>(frame.from);
  uint32_t to = static_cast<uint32_t>(frame.to);
  std::memcpy(p, &length, 4);
  std::memcpy(p + 4, &from, 4);
  std::memcpy(p + 8, &to, 4);
  std::memcpy(p + 12, &frame.session, 8);
  if (!frame.payload.empty()) {
    std::memcpy(p + 20, frame.payload.data(), frame.payload.size());
  }
}

Bytes EncodeFrame(const WireFrame& frame) {
  Bytes out;
  out.reserve(kWireFrameOverhead + frame.payload.size());
  AppendFrame(frame, &out);
  return out;
}

void FrameDecoder::Feed(const uint8_t* data, size_t len) {
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

namespace {

WireFrame ControlFrame(NodeId from, Bytes payload) {
  WireFrame frame;
  frame.from = from;
  frame.to = -1;
  frame.session = kControlSession;
  frame.payload = std::move(payload);
  return frame;
}

// Checks the `type, version` preamble shared by every control frame and
// returns a reader positioned at the type-specific fields.
ByteReader ControlReader(const WireFrame& frame, ControlType expected) {
  DSTRESS_CHECK(frame.session == kControlSession);
  ByteReader reader(frame.payload);
  DSTRESS_CHECK(reader.U8() == expected);
  uint8_t version = reader.U8();
  if (version != kBootstrapProtocolVersion) {
    // Note: version-1 builds predate the version byte entirely, so a v1
    // peer shows up here as whatever byte its payload happened to carry.
    std::fprintf(stderr,
                 "bootstrap: peer speaks handshake protocol version %u, this build speaks %u"
                 " (mixed dstress builds in one deployment? a nonsense version usually means"
                 " a pre-versioned v1 build)\n",
                 version, kBootstrapProtocolVersion);
    DSTRESS_CHECK(false);
  }
  return reader;
}

void WriteEndpoint(ByteWriter* w, const PeerEndpoint& endpoint) {
  DSTRESS_CHECK(endpoint.host.size() <= 255);
  DSTRESS_CHECK(endpoint.port >= 0 && endpoint.port <= 65535);
  w->U8(static_cast<uint8_t>(endpoint.host.size()));
  w->Raw(reinterpret_cast<const uint8_t*>(endpoint.host.data()), endpoint.host.size());
  w->U32(static_cast<uint32_t>(endpoint.port));
}

PeerEndpoint ReadEndpoint(ByteReader* reader) {
  PeerEndpoint endpoint;
  uint8_t len = reader->U8();
  endpoint.host.resize(len);
  reader->Raw(reinterpret_cast<uint8_t*>(endpoint.host.data()), len);
  endpoint.port = static_cast<int>(reader->U32());
  return endpoint;
}

// A control frame whose only field is the sending node.
WireFrame MakeNodeOnlyFrame(ControlType type, NodeId node) {
  ByteWriter w;
  w.U8(type);
  w.U8(kBootstrapProtocolVersion);
  w.U32(static_cast<uint32_t>(node));
  return ControlFrame(node, w.Take());
}

NodeId ParseNodeOnlyFrame(const WireFrame& frame, ControlType type) {
  ByteReader reader = ControlReader(frame, type);
  NodeId node = static_cast<NodeId>(reader.U32());
  DSTRESS_CHECK(reader.AtEnd());
  return node;
}

}  // namespace

uint8_t ControlFrameType(const WireFrame& frame) {
  DSTRESS_CHECK(frame.session == kControlSession);
  DSTRESS_CHECK(!frame.payload.empty());
  return frame.payload[0];
}

WireFrame MakeHelloFrame(NodeId node, const PeerEndpoint& endpoint) {
  ByteWriter w;
  w.U8(kCtrlHello);
  w.U8(kBootstrapProtocolVersion);
  w.U32(static_cast<uint32_t>(node));
  WriteEndpoint(&w, endpoint);
  return ControlFrame(node, w.Take());
}

void ParseHelloFrame(const WireFrame& frame, NodeId* node, PeerEndpoint* endpoint) {
  ByteReader reader = ControlReader(frame, kCtrlHello);
  *node = static_cast<NodeId>(reader.U32());
  *endpoint = ReadEndpoint(&reader);
  DSTRESS_CHECK(reader.AtEnd());
}

WireFrame MakePeersFrame(const std::vector<PeerEndpoint>& peers, bool ha_enabled) {
  ByteWriter w;
  w.U8(kCtrlPeers);
  w.U8(kBootstrapProtocolVersion);
  w.U32(static_cast<uint32_t>(peers.size()));
  for (const PeerEndpoint& endpoint : peers) {
    WriteEndpoint(&w, endpoint);
  }
  w.U8(ha_enabled ? 1 : 0);
  return ControlFrame(-1, w.Take());
}

std::vector<PeerEndpoint> ParsePeersFrame(const WireFrame& frame, bool* ha_enabled) {
  ByteReader reader = ControlReader(frame, kCtrlPeers);
  uint32_t count = reader.U32();
  std::vector<PeerEndpoint> peers(count);
  for (uint32_t i = 0; i < count; i++) {
    peers[i] = ReadEndpoint(&reader);
  }
  bool ha = reader.U8() != 0;
  if (ha_enabled != nullptr) *ha_enabled = ha;
  DSTRESS_CHECK(reader.AtEnd());
  return peers;
}

WireFrame MakeMeshHelloFrame(NodeId node) { return MakeNodeOnlyFrame(kCtrlMeshHello, node); }

NodeId ParseMeshHelloFrame(const WireFrame& frame) {
  return ParseNodeOnlyFrame(frame, kCtrlMeshHello);
}

WireFrame MakeReadyFrame(NodeId node) { return MakeNodeOnlyFrame(kCtrlReady, node); }

NodeId ParseReadyFrame(const WireFrame& frame) { return ParseNodeOnlyFrame(frame, kCtrlReady); }

WireFrame MakeHeartbeatFrame(uint64_t seq) {
  ByteWriter w;
  w.U8(kCtrlHeartbeat);
  w.U8(kBootstrapProtocolVersion);
  w.U64(seq);
  return ControlFrame(-1, w.Take());
}

uint64_t ParseHeartbeatFrame(const WireFrame& frame) {
  ByteReader reader = ControlReader(frame, kCtrlHeartbeat);
  uint64_t seq = reader.U64();
  DSTRESS_CHECK(reader.AtEnd());
  return seq;
}

WireFrame MakeHeartbeatAckFrame(NodeId node, uint64_t seq) {
  ByteWriter w;
  w.U8(kCtrlHeartbeatAck);
  w.U8(kBootstrapProtocolVersion);
  w.U32(static_cast<uint32_t>(node));
  w.U64(seq);
  return ControlFrame(node, w.Take());
}

void ParseHeartbeatAckFrame(const WireFrame& frame, NodeId* node, uint64_t* seq) {
  ByteReader reader = ControlReader(frame, kCtrlHeartbeatAck);
  *node = static_cast<NodeId>(reader.U32());
  *seq = reader.U64();
  DSTRESS_CHECK(reader.AtEnd());
}

WireFrame MakeResumeHelloFrame(NodeId node, const PeerEndpoint& endpoint, bool full_mesh) {
  ByteWriter w;
  w.U8(kCtrlResumeHello);
  w.U8(kBootstrapProtocolVersion);
  w.U32(static_cast<uint32_t>(node));
  WriteEndpoint(&w, endpoint);
  w.U8(full_mesh ? 1 : 0);
  return ControlFrame(node, w.Take());
}

void ParseResumeHelloFrame(const WireFrame& frame, NodeId* node, PeerEndpoint* endpoint,
                           bool* full_mesh) {
  ByteReader reader = ControlReader(frame, kCtrlResumeHello);
  *node = static_cast<NodeId>(reader.U32());
  *endpoint = ReadEndpoint(&reader);
  *full_mesh = reader.U8() != 0;
  DSTRESS_CHECK(reader.AtEnd());
}

WireFrame MakeMeshResumeFrame(NodeId node) { return MakeNodeOnlyFrame(kCtrlMeshResume, node); }

NodeId ParseMeshResumeFrame(const WireFrame& frame) {
  return ParseNodeOnlyFrame(frame, kCtrlMeshResume);
}

WireFrame MakeMeshResumeOkFrame(NodeId node) { return MakeNodeOnlyFrame(kCtrlMeshResumeOk, node); }

NodeId ParseMeshResumeOkFrame(const WireFrame& frame) {
  return ParseNodeOnlyFrame(frame, kCtrlMeshResumeOk);
}

WireFrame MakeResumeReadyFrame(NodeId node) { return MakeNodeOnlyFrame(kCtrlResumeReady, node); }

NodeId ParseResumeReadyFrame(const WireFrame& frame) {
  return ParseNodeOnlyFrame(frame, kCtrlResumeReady);
}

WireFrame MakeShutdownFrame() {
  ByteWriter w;
  w.U8(kCtrlShutdown);
  w.U8(kBootstrapProtocolVersion);
  return ControlFrame(-1, w.Take());
}

void ParseShutdownFrame(const WireFrame& frame) {
  ByteReader reader = ControlReader(frame, kCtrlShutdown);
  DSTRESS_CHECK(reader.AtEnd());
}

bool FrameDecoder::Next(WireFrame* out, Bytes* raw) {
  if (buffered_bytes() < 4) {
    return false;
  }
  uint32_t length = 0;
  std::memcpy(&length, buf_.data() + pos_, 4);
  DSTRESS_CHECK(length >= 16 && length - 16 <= kMaxWirePayload);
  if (buffered_bytes() < 4 + static_cast<size_t>(length)) {
    return false;
  }
  const uint8_t* p = buf_.data() + pos_;
  uint32_t from = 0;
  uint32_t to = 0;
  std::memcpy(&from, p + 4, 4);
  std::memcpy(&to, p + 8, 4);
  std::memcpy(&out->session, p + 12, 8);
  out->from = static_cast<NodeId>(static_cast<int32_t>(from));
  out->to = static_cast<NodeId>(static_cast<int32_t>(to));
  out->payload.assign(p + 20, p + 4 + length);
  if (raw != nullptr) {
    raw->assign(p, p + 4 + length);
  }
  pos_ += 4 + static_cast<size_t>(length);
  return true;
}

}  // namespace dstress::net
