#include "perfbench/traced_transport.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/net/transport.h"
#include "src/net/transport_spec.h"

namespace perfbench {

namespace {

using dstress::Bytes;
using dstress::net::NodeId;
using dstress::net::SessionId;

// One thread's counters. Only the owning thread writes (load + store, no
// read-modify-write), Snapshot() reads; relaxed atomics make that race-free.
struct ThreadBlock {
  struct Ns {
    std::atomic<uint64_t> send_calls{0};
    std::atomic<uint64_t> msgs{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> send_ns{0};
    std::atomic<uint64_t> recv_ns{0};
  };
  std::array<Ns, kNamespaces> ns;
  std::atomic<uint64_t> bulk_meter_calls{0};
};

// Blocks are never freed: a pool thread may exit while its counts still
// belong in later snapshots.
std::mutex blocks_mu;
std::vector<std::unique_ptr<ThreadBlock>>& Blocks() {
  static auto* blocks = new std::vector<std::unique_ptr<ThreadBlock>>();
  return *blocks;
}

ThreadBlock& LocalBlock() {
  thread_local ThreadBlock* block = nullptr;
  if (block == nullptr) {
    auto owned = std::make_unique<ThreadBlock>();
    block = owned.get();
    std::lock_guard<std::mutex> lock(blocks_mu);
    Blocks().push_back(std::move(owned));
  }
  return *block;
}

void Bump(std::atomic<uint64_t>& counter, uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

ThreadBlock::Ns& NsOf(SessionId session) { return LocalBlock().ns[session >> 60]; }

class TracedTransport final : public dstress::net::Transport {
 public:
  explicit TracedTransport(std::unique_ptr<Transport> inner) : inner_(std::move(inner)) {}

  int num_nodes() const override { return inner_->num_nodes(); }

  void SetObserver(dstress::net::NetworkObserver* observer) override {
    inner_->SetObserver(observer);
  }

  void Send(NodeId from, NodeId to, Bytes message, SessionId session) override {
    const uint64_t size = message.size();
    const uint64_t start = NowNs();
    inner_->Send(from, to, std::move(message), session);
    RecordSend(session, 1, size, NowNs() - start);
  }

  void SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                 SessionId session) override {
    const uint64_t count = messages.size();
    uint64_t size = 0;
    for (const Bytes& m : messages) {
      size += m.size();
    }
    const uint64_t start = NowNs();
    inner_->SendBatch(from, to, std::move(messages), session);
    RecordSend(session, count, size, NowNs() - start);
  }

  Bytes Recv(NodeId to, NodeId from, SessionId session) override {
    const uint64_t start = NowNs();
    Bytes out = inner_->Recv(to, from, session);
    Bump(NsOf(session).recv_ns, NowNs() - start);
    return out;
  }

  std::vector<Bytes> RecvBatch(NodeId to, NodeId from, size_t count,
                               SessionId session) override {
    const uint64_t start = NowNs();
    std::vector<Bytes> out = inner_->RecvBatch(to, from, count, session);
    Bump(NsOf(session).recv_ns, NowNs() - start);
    return out;
  }

  dstress::net::TrafficStats NodeStats(NodeId node) const override {
    return inner_->NodeStats(node);
  }
  uint64_t TotalBytes() const override { return inner_->TotalBytes(); }
  uint64_t MaxBytesPerNode() const override { return inner_->MaxBytesPerNode(); }
  void ResetStats() override { inner_->ResetStats(); }

  bool MeterSelfDelivered(const std::vector<dstress::net::TrafficStats>& per_node_delta) override {
    Bump(LocalBlock().bulk_meter_calls, 1);
    return inner_->MeterSelfDelivered(per_node_delta);
  }

  uint64_t HaControlBytes() const override { return inner_->HaControlBytes(); }
  int HaResumeCount() const override { return inner_->HaResumeCount(); }

 private:
  static void RecordSend(SessionId session, uint64_t msgs, uint64_t bytes, uint64_t ns) {
    ThreadBlock::Ns& c = NsOf(session);
    Bump(c.send_calls, 1);
    Bump(c.msgs, msgs);
    Bump(c.bytes, bytes);
    Bump(c.send_ns, ns);
  }

  std::unique_ptr<Transport> inner_;
};

}  // namespace

NamespaceCounters NetCounters::Total() const {
  NamespaceCounters total;
  for (const NamespaceCounters& c : ns) {
    total.send_calls += c.send_calls;
    total.msgs += c.msgs;
    total.bytes += c.bytes;
    total.send_ns += c.send_ns;
    total.recv_ns += c.recv_ns;
  }
  return total;
}

NetCounters NetCounters::Minus(const NetCounters& before) const {
  NetCounters out;
  for (int i = 0; i < kNamespaces; i++) {
    out.ns[i].send_calls = ns[i].send_calls - before.ns[i].send_calls;
    out.ns[i].msgs = ns[i].msgs - before.ns[i].msgs;
    out.ns[i].bytes = ns[i].bytes - before.ns[i].bytes;
    out.ns[i].send_ns = ns[i].send_ns - before.ns[i].send_ns;
    out.ns[i].recv_ns = ns[i].recv_ns - before.ns[i].recv_ns;
  }
  out.bulk_meter_calls = bulk_meter_calls - before.bulk_meter_calls;
  return out;
}

NetCounters NetCounters::Snapshot() {
  NetCounters out;
  std::lock_guard<std::mutex> lock(blocks_mu);
  for (const auto& block : Blocks()) {
    for (int i = 0; i < kNamespaces; i++) {
      out.ns[i].send_calls += block->ns[i].send_calls.load(std::memory_order_relaxed);
      out.ns[i].msgs += block->ns[i].msgs.load(std::memory_order_relaxed);
      out.ns[i].bytes += block->ns[i].bytes.load(std::memory_order_relaxed);
      out.ns[i].send_ns += block->ns[i].send_ns.load(std::memory_order_relaxed);
      out.ns[i].recv_ns += block->ns[i].recv_ns.load(std::memory_order_relaxed);
    }
    out.bulk_meter_calls += block->bulk_meter_calls.load(std::memory_order_relaxed);
  }
  return out;
}

std::string TracedBackendName(const std::string& backend) { return "traced-" + backend; }

void RegisterTracedTransports() {
  for (const char* backend : {"sim", "tcp"}) {
    const std::string inner = backend;
    dstress::net::RegisterTransport(
        TracedBackendName(inner),
        [inner](int num_nodes, const dstress::net::TransportSpec& spec)
            -> std::unique_ptr<dstress::net::Transport> {
          dstress::net::TransportSpec inner_spec = spec;
          inner_spec.backend = inner;
          return std::make_unique<TracedTransport>(
              dstress::net::MakeTransport(inner_spec, num_nodes));
        });
  }
}

}  // namespace perfbench
