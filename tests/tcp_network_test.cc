// TcpNetwork conformance: the transport_test.cc semantics (per-session
// FIFO, batch == loop equivalence, exact metering, observer order) must
// hold when every message crosses real sockets through per-bank processes,
// and per-node traffic stats must be bit-identical to SimNetwork for the
// same traffic script. Everything is constructed through the registry
// (MakeTransport), never by type name.
#include <gtest/gtest.h>

#include <unistd.h>

#include <memory>
#include <thread>

#include "src/net/transport.h"
#include "src/net/transport_spec.h"

namespace dstress::net {
namespace {

std::unique_ptr<Transport> MakeTcp(int num_nodes) {
  return MakeTransport(TcpTransportSpec(), num_nodes);
}

// RecvRun into a buffer of its own.
Bytes TakeRun(Transport& net, const ChannelHandle& channel, const std::vector<uint32_t>& sizes) {
  Bytes out;
  net.RecvRun(channel, sizes, &out);
  return out;
}

TEST(TcpNetworkTest, FifoPerSessionThroughBasePointer) {
  auto net = MakeTcp(2);
  for (uint8_t i = 0; i < 10; i++) {
    net->Send(0, 1, Bytes{i}, /*session=*/7);
  }
  for (uint8_t i = 0; i < 10; i++) {
    EXPECT_EQ(net->Recv(1, 0, /*session=*/7), Bytes{i});
  }
}

TEST(TcpNetworkTest, SessionsAndDirectionsAreIsolated) {
  auto net = MakeTcp(2);
  net->Send(0, 1, Bytes{1}, 100);
  net->Send(0, 1, Bytes{2}, 200);
  net->Send(1, 0, Bytes{3}, 100);
  EXPECT_EQ(net->Recv(1, 0, 200), Bytes{2});
  EXPECT_EQ(net->Recv(1, 0, 100), Bytes{1});
  EXPECT_EQ(net->Recv(0, 1, 100), Bytes{3});
}

TEST(TcpNetworkTest, SelfSendLoopsThroughOwnBankProcess) {
  auto net = MakeTcp(2);
  net->Send(1, 1, Bytes{0x55}, 9);
  EXPECT_EQ(net->Recv(1, 1, 9), Bytes{0x55});
  TrafficStats s = net->NodeStats(1);
  EXPECT_EQ(s.messages_sent, 1u);
  EXPECT_EQ(s.messages_received, 1u);
}

TEST(TcpNetworkTest, SendBatchPreservesFifoBoundariesAndMetering) {
  auto net = MakeTcp(2);
  net->Send(0, 1, Bytes{0});
  net->SendBatch(0, 1, {Bytes{1}, Bytes{2, 2}, Bytes{3}});
  net->Send(0, 1, Bytes{4});

  EXPECT_EQ(net->Recv(1, 0), Bytes{0});
  EXPECT_EQ(net->Recv(1, 0), Bytes{1});
  EXPECT_EQ(net->Recv(1, 0), (Bytes{2, 2}));
  EXPECT_EQ(net->Recv(1, 0), Bytes{3});
  EXPECT_EQ(net->Recv(1, 0), Bytes{4});

  // Metering is identical to five individual Sends — payload bytes only,
  // wire framing excluded.
  TrafficStats s = net->NodeStats(0);
  EXPECT_EQ(s.messages_sent, 5u);
  EXPECT_EQ(s.bytes_sent, 6u);
  EXPECT_EQ(net->NodeStats(1).messages_received, 5u);
  EXPECT_EQ(net->NodeStats(1).bytes_received, 6u);
}

TEST(TcpNetworkTest, SendBatchWakesBlockedReceiver) {
  auto net = MakeTcp(2);
  Bytes first, second;
  std::thread receiver([&] {
    first = net->Recv(1, 0);
    second = net->Recv(1, 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net->SendBatch(0, 1, {Bytes{8}, Bytes{9}});
  receiver.join();
  EXPECT_EQ(first, Bytes{8});
  EXPECT_EQ(second, Bytes{9});
}

class OrderRecorder : public NetworkObserver {
 public:
  void OnSend(NodeId, NodeId, SessionId, const Bytes& payload) override {
    sends.push_back(payload);
  }
  void OnRecv(NodeId, NodeId, SessionId, const Bytes& payload) override {
    recvs.push_back(payload);
  }
  std::vector<Bytes> sends;
  std::vector<Bytes> recvs;
};

TEST(TcpNetworkTest, ObserverSeesBatchedMessagesInFifoOrder) {
  auto net = MakeTcp(2);
  OrderRecorder recorder;
  net->SetObserver(&recorder);

  net->SendBatch(0, 1, {Bytes{1}, Bytes{2}});
  net->Send(0, 1, Bytes{3});
  for (int i = 0; i < 3; i++) {
    net->Recv(1, 0);
  }

  std::vector<Bytes> expected = {Bytes{1}, Bytes{2}, Bytes{3}};
  EXPECT_EQ(recorder.sends, expected);
  EXPECT_EQ(recorder.recvs, expected);
}

// Over tcp a run crosses the wire as today's per-message frames (the base
// SendRun decomposes into SendBatch), and RecvRun reassembles it from the
// frames queued at the driver: a run's boundaries survive any mix with
// keyed calls, the observer sees each message once, and metering counts
// messages.
TEST(TcpNetworkTest, RunsCrossTheWireAsFrames) {
  auto net = MakeTcp(2);
  OrderRecorder recorder;
  net->SetObserver(&recorder);
  const ChannelHandle channel = net->OpenChannel(0, 1, 6);
  net->Send(0, 1, Bytes{0}, 6);
  net->SendRun(channel, Bytes{1, 2, 2, 3}, {1, 2, 1});
  net->SendBatch(0, 1, {Bytes{4}, Bytes{5, 5}}, 6);

  EXPECT_EQ(TakeRun(*net, channel, {1, 1}), (Bytes{0, 1}));
  EXPECT_EQ(net->Recv(1, 0, 6), (Bytes{2, 2}));
  EXPECT_EQ(TakeRun(*net, channel, {1, 1, 2}), (Bytes{3, 4, 5, 5}));

  const std::vector<Bytes> expected = {Bytes{0}, Bytes{1},    Bytes{2, 2},
                                       Bytes{3}, Bytes{4}, Bytes{5, 5}};
  EXPECT_EQ(recorder.sends, expected);
  EXPECT_EQ(recorder.recvs, expected);
  EXPECT_EQ(net->NodeStats(0).messages_sent, 6u);
  EXPECT_EQ(net->NodeStats(0).bytes_sent, 8u);
  EXPECT_EQ(net->NodeStats(1).messages_received, 6u);
  EXPECT_EQ(net->NodeStats(1).bytes_received, 8u);
}

// A RecvRun parked before the frames arrive wakes as they land.
TEST(TcpNetworkTest, RecvRunWaitsForItsFrames) {
  auto net = MakeTcp(2);
  const ChannelHandle channel = net->OpenChannel(1, 0, 2);
  Bytes run;
  std::thread receiver([&] { net->RecvRun(channel, {3, 1}, &run); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net->SendRun(channel, Bytes{7, 7, 7, 8}, {3, 1});
  receiver.join();
  EXPECT_EQ(run, (Bytes{7, 7, 7, 8}));
}

// Drives the same deterministic traffic script over SimNetwork and
// TcpNetwork and expects every per-node counter to match bit for bit — the
// invariant that keeps the paper's traffic figures backend-independent.
TEST(TcpNetworkTest, TrafficStatsBitIdenticalToSimNetwork) {
  constexpr int kNodes = 3;
  auto run_script = [](Transport* net) {
    uint64_t rng = 99;
    for (int step = 0; step < 200; step++) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      int from = static_cast<int>((rng >> 33) % kNodes);
      int to = static_cast<int>((rng >> 43) % kNodes);
      SessionId session = (rng >> 53) % 4;
      size_t len = 1 + static_cast<size_t>((rng >> 21) % 64);
      if (step % 5 == 0) {
        net->SendBatch(from, to, {Bytes(len, 0xab), Bytes(len / 2, 0xcd)}, session);
      } else {
        net->Send(from, to, Bytes(len, 0xee), session);
      }
    }
    // Drain everything so received-side counters are complete.
    rng = 99;
    for (int step = 0; step < 200; step++) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      int from = static_cast<int>((rng >> 33) % kNodes);
      int to = static_cast<int>((rng >> 43) % kNodes);
      SessionId session = (rng >> 53) % 4;
      int count = step % 5 == 0 ? 2 : 1;
      for (int i = 0; i < count; i++) {
        net->Recv(to, from, session);
      }
    }
  };

  auto sim = MakeTransport(SimTransportSpec(), kNodes);
  auto tcp = MakeTcp(kNodes);
  run_script(sim.get());
  run_script(tcp.get());

  EXPECT_EQ(sim->TotalBytes(), tcp->TotalBytes());
  EXPECT_EQ(sim->MaxBytesPerNode(), tcp->MaxBytesPerNode());
  for (int v = 0; v < kNodes; v++) {
    TrafficStats a = sim->NodeStats(v);
    TrafficStats b = tcp->NodeStats(v);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "node " << v;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "node " << v;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "node " << v;
    EXPECT_EQ(a.messages_received, b.messages_received) << "node " << v;
  }
}

// The real deployment shape: bank processes spawned as separate
// dstress_node binaries (exec, not fork). Skipped when the example binary
// is not present (e.g. running the test outside the build tree).
TEST(TcpNetworkTest, NodeProgramSpawnModeRelaysTraffic) {
  const char* candidates[] = {"../examples/dstress_node", "examples/dstress_node"};
  std::string program;
  for (const char* path : candidates) {
    if (access(path, X_OK) == 0) {
      program = path;
      break;
    }
  }
  if (program.empty()) {
    GTEST_SKIP() << "dstress_node binary not found";
  }
  TransportSpec spec = TcpTransportSpec();
  spec.node_program = program;
  auto net = MakeTransport(spec, 3);
  net->SendBatch(0, 2, {Bytes{1}, Bytes{2}}, 5);
  net->Send(2, 0, Bytes{3}, 5);
  EXPECT_EQ(net->Recv(2, 0, 5), Bytes{1});
  EXPECT_EQ(net->Recv(2, 0, 5), Bytes{2});
  EXPECT_EQ(net->Recv(0, 2, 5), Bytes{3});
  EXPECT_EQ(net->NodeStats(0).bytes_sent, 2u);
  EXPECT_EQ(net->NodeStats(2).bytes_received, 2u);
}

}  // namespace
}  // namespace dstress::net
