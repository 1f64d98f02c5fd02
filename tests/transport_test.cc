// Interface-conformance tests for net::Transport, exercised through the
// SimNetwork backend via a Transport* (tcp_network_test.cc re-runs the
// same semantics over the TCP backend), plus the TransportSpec registry
// that selects backends by name.
#include "src/net/transport.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/net/sim_network.h"
#include "src/net/transport_spec.h"

namespace dstress::net {
namespace {

TEST(TransportTest, FifoPerSessionThroughBasePointer) {
  SimNetwork sim(2);
  Transport* net = &sim;
  for (uint8_t i = 0; i < 10; i++) {
    net->Send(0, 1, Bytes{i}, /*session=*/7);
  }
  for (uint8_t i = 0; i < 10; i++) {
    EXPECT_EQ(net->Recv(1, 0, /*session=*/7), Bytes{i});
  }
}

TEST(TransportTest, SessionsAndDirectionsAreIsolated) {
  SimNetwork sim(2);
  Transport* net = &sim;
  net->Send(0, 1, Bytes{1}, 100);
  net->Send(0, 1, Bytes{2}, 200);
  net->Send(1, 0, Bytes{3}, 100);
  EXPECT_EQ(net->Recv(1, 0, 200), Bytes{2});
  EXPECT_EQ(net->Recv(1, 0, 100), Bytes{1});
  EXPECT_EQ(net->Recv(0, 1, 100), Bytes{3});
}

TEST(TransportTest, SendBatchPreservesFifoBoundariesAndMetering) {
  SimNetwork sim(2);
  Transport* net = &sim;
  net->Send(0, 1, Bytes{0});
  net->SendBatch(0, 1, {Bytes{1}, Bytes{2, 2}, Bytes{3}});
  net->Send(0, 1, Bytes{4});

  EXPECT_EQ(net->Recv(1, 0), Bytes{0});
  EXPECT_EQ(net->Recv(1, 0), Bytes{1});
  EXPECT_EQ(net->Recv(1, 0), (Bytes{2, 2}));
  EXPECT_EQ(net->Recv(1, 0), Bytes{3});
  EXPECT_EQ(net->Recv(1, 0), Bytes{4});

  // Metering is identical to five individual Sends.
  TrafficStats s = net->NodeStats(0);
  EXPECT_EQ(s.messages_sent, 5u);
  EXPECT_EQ(s.bytes_sent, 6u);
  EXPECT_EQ(net->NodeStats(1).messages_received, 5u);
  EXPECT_EQ(net->NodeStats(1).bytes_received, 6u);
}

TEST(TransportTest, SendBatchWakesBlockedReceiver) {
  SimNetwork sim(2);
  Transport* net = &sim;
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

// Observer callbacks must arrive in FIFO delivery order per channel, for
// batched sends exactly as for individual ones.
class OrderRecorder : public NetworkObserver {
 public:
  void OnSend(NodeId from, NodeId to, SessionId session, const Bytes& payload) override {
    (void)from;
    (void)to;
    (void)session;
    sends.push_back(payload);
  }
  void OnRecv(NodeId to, NodeId from, SessionId session, const Bytes& payload) override {
    (void)to;
    (void)from;
    (void)session;
    recvs.push_back(payload);
  }
  std::vector<Bytes> sends;
  std::vector<Bytes> recvs;
};

TEST(TransportTest, ObserverSeesBatchedMessagesInFifoOrder) {
  SimNetwork sim(2);
  Transport* net = &sim;
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

TEST(TransportTest, ObserverAttachAfterTrafficAborts) {
  OrderRecorder recorder;
  EXPECT_DEATH(
      {
        SimNetwork sim(2);
        sim.Send(0, 1, Bytes{1});
        sim.SetObserver(&recorder);
      },
      "CHECK failed");
}

TEST(TransportTest, HighWatermarkCapAborts) {
  TransportOptions options;
  options.channel_high_watermark_bytes = 16;
  EXPECT_DEATH(
      {
        SimNetwork sim(2, options);
        for (int i = 0; i < 3; i++) {
          sim.Send(0, 1, Bytes(8));  // 24 queued bytes > 16 cap
        }
      },
      "CHECK failed");
}

TEST(TransportTest, HighWatermarkCountsQueuedNotTotalBytes) {
  TransportOptions options;
  options.channel_high_watermark_bytes = 16;
  SimNetwork sim(2, options);
  // Draining keeps the queue below the cap even though total traffic far
  // exceeds it.
  for (int i = 0; i < 10; i++) {
    sim.Send(0, 1, Bytes(8));
    sim.Recv(1, 0);
  }
  EXPECT_EQ(sim.TotalBytes(), 80u);
}

// A Transport over zero nodes reports zero average traffic instead of
// dividing by zero (backends normally forbid construction at n == 0, but
// the base-class arithmetic must not rely on that).
class EmptyTransport : public Transport {
 public:
  int num_nodes() const override { return 0; }
  void SetObserver(NetworkObserver*) override {}
  void Send(NodeId, NodeId, Bytes, SessionId) override {}
  Bytes Recv(NodeId, NodeId, SessionId) override { return {}; }
  TrafficStats NodeStats(NodeId) const override { return {}; }
  uint64_t TotalBytes() const override { return 0; }
  uint64_t MaxBytesPerNode() const override { return 0; }
  void ResetStats() override {}
};

TEST(TransportTest, AverageBytesPerNodeOnEmptyTransportIsZero) {
  EmptyTransport empty;
  EXPECT_EQ(empty.AverageBytesPerNode(), 0.0);
}

TEST(TransportRegistryTest, BuiltinsResolveByName) {
  EXPECT_TRUE(KnownTransportBackend("sim"));
  EXPECT_TRUE(KnownTransportBackend("tcp"));
  EXPECT_FALSE(KnownTransportBackend("carrier-pigeon"));

  auto names = KnownTransportBackends();
  EXPECT_EQ(names[0], "sim");
  EXPECT_EQ(names[1], "tcp");

  auto sim = MakeTransport(SimTransportSpec(), 3);
  EXPECT_EQ(sim->num_nodes(), 3);
  sim->Send(0, 1, Bytes{1});
  EXPECT_EQ(sim->Recv(1, 0), Bytes{1});
}

TEST(TransportRegistryTest, SpecOptionsReachTheBackend) {
  TransportSpec spec = SimTransportSpec();
  spec.options.channel_high_watermark_bytes = 16;
  EXPECT_DEATH(
      {
        auto net = MakeTransport(spec, 2);
        for (int i = 0; i < 3; i++) {
          net->Send(0, 1, Bytes(8));  // 24 queued bytes > 16 cap
        }
      },
      "CHECK failed");
}

TEST(TransportRegistryTest, OverrideAndReset) {
  // A registered factory replaces a built-in by name (the seam a test
  // double or an out-of-tree backend uses), and ResetTransport restores
  // the built-in.
  RegisterTransport("sim", [](int num_nodes, const TransportSpec&) {
    return std::make_unique<SimNetwork>(num_nodes + 1);
  });
  EXPECT_EQ(MakeTransport(SimTransportSpec(), 3)->num_nodes(), 4);

  ResetTransport("sim");
  EXPECT_EQ(MakeTransport(SimTransportSpec(), 3)->num_nodes(), 3);

  RegisterTransport("loopback", [](int num_nodes, const TransportSpec&) {
    return std::make_unique<SimNetwork>(num_nodes);
  });
  EXPECT_TRUE(KnownTransportBackend("loopback"));
  TransportSpec spec;
  spec.backend = "loopback";
  EXPECT_EQ(MakeTransport(spec, 2)->num_nodes(), 2);
  ResetTransport("loopback");
  EXPECT_FALSE(KnownTransportBackend("loopback"));
}

}  // namespace
}  // namespace dstress::net
