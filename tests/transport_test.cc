// Interface-conformance tests for net::Transport, exercised through the
// SimNetwork backend via a Transport* (tcp_network_test.cc re-runs the
// same semantics over the TCP backend), plus the TransportSpec registry
// that selects backends by name.
#include "src/net/transport.h"

#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "src/ha/faulty.h"
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
  using Key = std::tuple<NodeId, NodeId, SessionId>;
  void OnSend(NodeId from, NodeId to, SessionId session, const Bytes& payload) override {
    sends.push_back(payload);
    send_keys.emplace_back(from, to, session);
  }
  void OnRecv(NodeId to, NodeId from, SessionId session, const Bytes& payload) override {
    recvs.push_back(payload);
    recv_keys.emplace_back(to, from, session);
  }
  std::vector<Bytes> sends;
  std::vector<Bytes> recvs;
  std::vector<Key> send_keys;
  std::vector<Key> recv_keys;
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

// --- Runs (OpenChannel, SendRun, RecvRun) ----------------------------------

Bytes Concat(const std::vector<Bytes>& messages) {
  Bytes out;
  for (const Bytes& m : messages) {
    out.insert(out.end(), m.begin(), m.end());
  }
  return out;
}

// RecvRun into a buffer of its own.
Bytes TakeRun(Transport& net, const ChannelHandle& channel, const std::vector<uint32_t>& sizes) {
  Bytes out;
  net.RecvRun(channel, sizes, &out);
  return out;
}

std::vector<uint32_t> SizesOf(const std::vector<Bytes>& messages) {
  std::vector<uint32_t> sizes;
  for (const Bytes& m : messages) {
    sizes.push_back(static_cast<uint32_t>(m.size()));
  }
  return sizes;
}

void ExpectSameStats(const Transport& a, const Transport& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); v++) {
    TrafficStats x = a.NodeStats(v);
    TrafficStats y = b.NodeStats(v);
    EXPECT_EQ(x.bytes_sent, y.bytes_sent) << "node " << v;
    EXPECT_EQ(x.bytes_received, y.bytes_received) << "node " << v;
    EXPECT_EQ(x.messages_sent, y.messages_sent) << "node " << v;
    EXPECT_EQ(x.messages_received, y.messages_received) << "node " << v;
  }
}

// A run is a SendBatch of its messages to every observer of the transport:
// the same per-node TrafficStats after the send and after the receive, and
// the same OnSend/OnRecv calls, one per message, in order, with the same
// keys and payloads (an empty message included).
TEST(TransportRunTest, RunIsObservablyASendBatchOfItsMessages) {
  const std::vector<Bytes> messages = {Bytes{1, 2}, Bytes{}, Bytes{3, 4, 5}, Bytes{6}};
  SimNetwork batch_net(3), run_net(3);
  OrderRecorder batch_seen, run_seen;
  batch_net.SetObserver(&batch_seen);
  run_net.SetObserver(&run_seen);

  batch_net.SendBatch(2, 1, messages, 9);
  ChannelHandle channel = run_net.OpenChannel(2, 1, 9);
  run_net.SendRun(channel, Concat(messages), SizesOf(messages));
  ExpectSameStats(batch_net, run_net);

  EXPECT_EQ(batch_net.RecvBatch(1, 2, messages.size(), 9), messages);
  EXPECT_EQ(TakeRun(run_net, channel, SizesOf(messages)), Concat(messages));
  ExpectSameStats(batch_net, run_net);
  EXPECT_EQ(run_net.NodeStats(2).messages_sent, 4u);
  EXPECT_EQ(run_net.NodeStats(1).bytes_received, 6u);

  EXPECT_EQ(run_seen.sends, messages);
  EXPECT_EQ(run_seen.recvs, messages);
  EXPECT_EQ(run_seen.sends, batch_seen.sends);
  EXPECT_EQ(run_seen.send_keys, batch_seen.send_keys);
  EXPECT_EQ(run_seen.recvs, batch_seen.recvs);
  EXPECT_EQ(run_seen.recv_keys, batch_seen.recv_keys);
}

// Any mix of Send/SendBatch/SendRun with Recv/RecvBatch/RecvRun on one
// channel delivers every message once, in order, with its boundary: a Recv
// may take part of a run, and a RecvRun may span single messages and the
// pieces of several runs. Sends and receives interleave, so queues hold
// partly drained runs.
TEST(TransportRunTest, AnyMixOfCallsKeepsFifoBoundaries) {
  SimNetwork sim(2);
  Transport* net = &sim;
  const SessionId session = 3;
  const ChannelHandle channel = net->OpenChannel(0, 1, session);
  uint64_t rng = 7;
  auto next = [&rng](uint64_t bound) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % bound;
  };
  std::vector<Bytes> sent, got;
  uint64_t sent_bytes = 0;
  Bytes run;  // reused by every RecvRun, as a caller reuses it across rounds
  auto receive = [&](int how, size_t k) {
    const std::vector<Bytes> expected(sent.begin() + got.size(), sent.begin() + got.size() + k);
    if (how == 0) {
      for (size_t i = 0; i < k; i++) {
        got.push_back(net->Recv(1, 0, session));
      }
    } else if (how == 1) {
      for (Bytes& m : net->RecvBatch(1, 0, k, session)) {
        got.push_back(std::move(m));
      }
    } else {
      net->RecvRun(channel, SizesOf(expected), &run);
      ASSERT_EQ(run.size(), Concat(expected).size());
      size_t offset = 0;
      for (const Bytes& m : expected) {
        got.emplace_back(run.begin() + offset, run.begin() + offset + m.size());
        offset += m.size();
      }
    }
  };
  for (int step = 0; step < 400; step++) {
    const int how = static_cast<int>(next(3));
    if (next(2) == 0) {
      std::vector<Bytes> batch(1 + next(4));
      for (Bytes& m : batch) {
        m.resize(next(6));
        for (uint8_t& b : m) {
          b = static_cast<uint8_t>(next(256));
        }
        sent_bytes += m.size();
      }
      sent.insert(sent.end(), batch.begin(), batch.end());
      if (how == 0) {
        for (const Bytes& m : batch) {
          net->Send(0, 1, m, session);
        }
      } else if (how == 1) {
        net->SendBatch(0, 1, batch, session);
      } else {
        net->SendRun(channel, Concat(batch), SizesOf(batch));
      }
    } else if (got.size() < sent.size()) {
      receive(how, 1 + next(std::min<size_t>(sent.size() - got.size(), 6)));
    }
  }
  if (got.size() < sent.size()) {
    receive(2, sent.size() - got.size());
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(net->NodeStats(0).messages_sent, sent.size());
  EXPECT_EQ(net->NodeStats(0).bytes_sent, sent_bytes);
  EXPECT_EQ(net->NodeStats(1).messages_received, sent.size());
  EXPECT_EQ(net->NodeStats(1).bytes_received, sent_bytes);
}

// The watermark counts a run's messages one by one: a run that would pass
// the cap aborts, and a Recv that takes one message of a run frees only
// that message's bytes.
TEST(TransportRunTest, WatermarkIsCheckedPerMessageOfARun) {
  TransportOptions options;
  options.channel_high_watermark_bytes = 16;
  SimNetwork sim(2, options);
  const ChannelHandle channel = sim.OpenChannel(0, 1);
  sim.SendRun(channel, Bytes(16), {8, 8});  // exactly at the cap
  EXPECT_EQ(sim.Recv(1, 0), Bytes(8));      // 8 bytes still queued
  sim.Send(0, 1, Bytes(8));                 // back at the cap
  EXPECT_EQ(TakeRun(sim, channel, {8, 8}), Bytes(16));
  EXPECT_DEATH(
      {
        sim.SendRun(channel, Bytes(8), {4, 4});
        sim.SendRun(channel, Bytes(12), {4, 4, 4});  // 4 + 4 + 4 over the cap
      },
      "CHECK failed");
}

// A receiver expects every boundary of a run; a message of another size —
// inside a run, or a single message that a run would have to split — is a
// fatal CHECK, on the resolved path and on the keyed default alike.
TEST(TransportRunDeathTest, RecvRunChecksEveryBoundary) {
  EXPECT_DEATH(
      {
        SimNetwork sim(2);
        const ChannelHandle channel = sim.OpenChannel(0, 1);
        sim.SendRun(channel, Bytes(5), {2, 3});
        TakeRun(sim, channel, {3, 2});
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        SimNetwork sim(2);
        const ChannelHandle channel = sim.OpenChannel(0, 1);
        sim.Send(0, 1, Bytes(4));
        TakeRun(sim, channel, {2, 2});
      },
      "CHECK failed");
  EXPECT_DEATH(
      {
        SimNetwork sim(2);
        Transport& keyed = sim;
        const ChannelHandle channel = keyed.Transport::OpenChannel(0, 1);
        sim.SendBatch(0, 1, {Bytes(2), Bytes(3)});
        Bytes out;
        keyed.Transport::RecvRun(channel, {2, 2}, &out);
      },
      "CHECK failed");
}

// A dead peer aborts a RecvRun that has nothing left to deliver, whether
// the receiver was already parked or arrives later; queued messages drain
// first.
TEST(TransportRunTest, RecvRunDrainsBeforeADeadPeerAborts) {
  SimNetwork sim(2);
  const ChannelHandle channel = sim.OpenChannel(0, 1);
  sim.SendRun(channel, Bytes{1, 2, 3}, {1, 2});
  sim.DeclarePeerDead(0, "bank 0 killed");
  EXPECT_EQ(TakeRun(sim, channel, {1, 2}), (Bytes{1, 2, 3}));
  EXPECT_DEATH(TakeRun(sim, channel, {1}), "woke on a dead peer with no message to deliver");
}

TEST(TransportRunDeathTest, DeadPeerWakesAParkedRecvRun) {
  EXPECT_DEATH(
      {
        SimNetwork sim(2);
        const ChannelHandle channel = sim.OpenChannel(0, 1);
        std::thread killer([&sim] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          sim.DeclarePeerDead(0, "bank 0 killed");
        });
        TakeRun(sim, channel, {4, 4});
        killer.join();
      },
      "bank 0 killed");
}

// A decorator that overrides only the keyed calls, as a timing or logging
// wrapper written before runs existed does. The base-class defaults turn
// its runs into one SendBatch and one RecvBatch of the same messages.
class KeyedOnlyDecorator : public Transport {
 public:
  explicit KeyedOnlyDecorator(Transport* inner) : inner_(inner) {}
  int num_nodes() const override { return inner_->num_nodes(); }
  void SetObserver(NetworkObserver* observer) override { inner_->SetObserver(observer); }
  void Send(NodeId from, NodeId to, Bytes message, SessionId session) override {
    sends++;
    inner_->Send(from, to, std::move(message), session);
  }
  void SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                 SessionId session) override {
    send_batches.push_back(messages.size());
    inner_->SendBatch(from, to, std::move(messages), session);
  }
  Bytes Recv(NodeId to, NodeId from, SessionId session) override {
    recvs++;
    return inner_->Recv(to, from, session);
  }
  std::vector<Bytes> RecvBatch(NodeId to, NodeId from, size_t count,
                               SessionId session) override {
    recv_batches.push_back(count);
    return inner_->RecvBatch(to, from, count, session);
  }
  TrafficStats NodeStats(NodeId node) const override { return inner_->NodeStats(node); }
  uint64_t TotalBytes() const override { return inner_->TotalBytes(); }
  uint64_t MaxBytesPerNode() const override { return inner_->MaxBytesPerNode(); }
  void ResetStats() override { inner_->ResetStats(); }

  int sends = 0;
  int recvs = 0;
  std::vector<size_t> send_batches;
  std::vector<size_t> recv_batches;

 private:
  Transport* inner_;
};

TEST(TransportRunTest, DefaultRunsGoThroughTheKeyedCalls) {
  SimNetwork sim(2);
  KeyedOnlyDecorator decorated(&sim);
  const ChannelHandle channel = decorated.OpenChannel(0, 1, 4);
  EXPECT_EQ(channel.state, nullptr);
  EXPECT_EQ(channel.from, 0);
  EXPECT_EQ(channel.to, 1);
  EXPECT_EQ(channel.session, 4u);

  decorated.SendRun(channel, Bytes{1, 2, 3}, {1, 2});
  decorated.SendRun(channel, Bytes{}, {});  // an empty run sends nothing
  EXPECT_EQ(decorated.send_batches, std::vector<size_t>{2});
  EXPECT_EQ(sim.Recv(1, 0, 4), Bytes{1});  // the inner backend got two messages
  EXPECT_EQ(sim.Recv(1, 0, 4), (Bytes{2, 3}));

  decorated.SendRun(channel, Bytes{4, 5, 6}, {2, 0, 1});
  EXPECT_EQ(TakeRun(decorated, channel, {2, 0, 1}), (Bytes{4, 5, 6}));
  EXPECT_EQ(decorated.recv_batches, std::vector<size_t>{3});
  EXPECT_EQ(decorated.sends, 0);
  EXPECT_EQ(decorated.recvs, 0);
  EXPECT_EQ(sim.NodeStats(0).messages_sent, 5u);
  EXPECT_EQ(sim.NodeStats(1).messages_received, 5u);
}

// ha::FaultyTransport keeps the keyed defaults, so its fault schedule
// counts a run's messages exactly as a SendBatch's: a kill at the 4th send
// fires on the second run, before it is forwarded, in both.
TEST(TransportRunTest, FaultyTransportFiresAtTheSameMessageCounts) {
  TransportSpec spec;
  spec.backend = "faulty";
  spec.faulty_inner = "sim";
  FaultSpec kill;
  kill.action = FaultSpec::Action::kKillNode;
  kill.node = 1;
  kill.after_sends = 4;
  spec.faults = {kill};
  ha::FaultyTransport batched(2, spec), runs(2, spec);
  auto* batched_inner = dynamic_cast<ChannelDemuxTransport*>(batched.inner());
  auto* runs_inner = dynamic_cast<ChannelDemuxTransport*>(runs.inner());
  ASSERT_NE(batched_inner, nullptr);
  ASSERT_NE(runs_inner, nullptr);
  const ChannelHandle channel = runs.OpenChannel(0, 1);

  batched.SendBatch(0, 1, {Bytes{1}, Bytes{2}, Bytes{3}});
  runs.SendRun(channel, Bytes{1, 2, 3}, {1, 1, 1});
  EXPECT_EQ(batched.sends(), 3u);
  EXPECT_EQ(runs.sends(), 3u);
  EXPECT_FALSE(batched_inner->PeerDead(1));
  EXPECT_FALSE(runs_inner->PeerDead(1));

  batched.SendBatch(0, 1, {Bytes{4}, Bytes{5}});
  runs.SendRun(channel, Bytes{4, 5}, {1, 1});
  EXPECT_EQ(batched.sends(), 5u);
  EXPECT_EQ(runs.sends(), 5u);
  EXPECT_TRUE(batched_inner->PeerDead(1));
  EXPECT_TRUE(runs_inner->PeerDead(1));
  // The fault fired before the run was forwarded; what was sent still drains.
  EXPECT_EQ(TakeRun(runs, channel, {1, 1, 1, 1, 1}), (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(batched.RecvBatch(1, 0, 5).size(), 5u);
  ExpectSameStats(*batched.inner(), *runs.inner());
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
