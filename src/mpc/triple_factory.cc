#include "src/mpc/triple_factory.h"

#include <algorithm>

#include "src/common/bits.h"
#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"

namespace dstress::mpc {

namespace {

// Same mixing idiom as the runtime's RolePrgSeed: one multiplicative spread
// of the run seed plus a role selector. 0xba5e splits the pair-session
// base-OT streams from the per-(tag, member) share streams below.
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ULL;

// How far the factory may run ahead of the online phase, in waves.
constexpr size_t kMaxPendingWaves = 2;

// Appends `count` bits of (a, b, c) to the end of `dst` (bit-granular: the
// destination's tail is rarely word-aligned once draws of mixed sizes have
// passed through, so CopyBits does the shifting).
void AppendTriples(BitTriples& dst, const PackedBits& a, const PackedBits& b, const PackedBits& c,
                   size_t count) {
  size_t base = dst.count;
  size_t words = PackedWords(base + count);
  dst.a.resize(words, 0);
  dst.b.resize(words, 0);
  dst.c.resize(words, 0);
  CopyBits(dst.a.data(), base, a.data(), 0, count);
  CopyBits(dst.b.data(), base, b.data(), 0, count);
  CopyBits(dst.c.data(), base, c.data(), 0, count);
  dst.count = base + count;
}

}  // namespace

// Blocking cursor over one (tag, member) stream. Local only: Generate never
// touches the network, so views impose no call-order coordination across
// nodes — exactly why the runtime's single lockstep online phase stays
// legal with OT triples (see Runtime::RunBatchedPhase).
class TripleFactory::View : public TripleSource {
 public:
  View(TripleFactory* factory, Buffer* buf) : factory_(factory), buf_(buf) {}

  BitTriples Generate(size_t count) override {
    std::unique_lock<std::mutex> lock(buf_->mu);
    // Fail fast instead of deadlocking: a draw beyond what Enqueue promised
    // means the runtime's demand estimate diverged from consumption.
    DSTRESS_CHECK(buf_->consumed + count <= buf_->promised);
    if (buf_->generated - buf_->consumed < count) {
      Stopwatch wait;
      buf_->cv.wait(lock, [&] { return buf_->generated - buf_->consumed >= count; });
      factory_->AddWaitSeconds(wait.ElapsedSeconds());
    }
    BitTriples out = SliceTriples(buf_->pending, buf_->cursor, count);
    buf_->cursor += count;
    buf_->consumed += count;
    if (buf_->cursor == buf_->pending.count) {
      buf_->pending = BitTriples{};
      buf_->cursor = 0;
    }
    return out;
  }

 private:
  TripleFactory* factory_;
  Buffer* buf_;
};

TripleFactory::TripleFactory(net::Transport* net, uint64_t prg_seed)
    : net_(net), prg_seed_(prg_seed), pool_(core::HardwareThreads()) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

TripleFactory::~TripleFactory() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  dispatcher_.join();
}

void TripleFactory::Enqueue(std::vector<TripleDemand> demands) {
  // Record the promises first so consumers started before generation can
  // tell "not yet generated" (wait) from "never coming" (fail fast).
  for (const TripleDemand& d : demands) {
    DSTRESS_CHECK(!d.parties.empty());
    for (int m = 0; m < static_cast<int>(d.parties.size()); m++) {
      Buffer* buf = BufferFor(d.tag, m);
      std::lock_guard<std::mutex> lock(buf->mu);
      buf->promised += d.count;
    }
  }
  std::unique_lock<std::mutex> lock(queue_mu_);
  // Bounded queue: the factory runs at most kMaxPendingWaves ahead of the
  // online phase; beyond that the enqueuer (the runtime's scheduler) blocks
  // here, which is the backpressure.
  queue_cv_.wait(lock, [&] { return pending_waves_.size() < kMaxPendingWaves; });
  pending_waves_.push_back(std::move(demands));
  queue_cv_.notify_all();
}

TripleSource* TripleFactory::ViewFor(uint64_t tag, int member) {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  auto key = std::make_pair(tag, member);
  auto it = views_.find(key);
  if (it != views_.end()) {
    return it->second.get();
  }
  std::unique_ptr<Buffer>& buf = buffers_[key];
  if (buf == nullptr) {
    buf = std::make_unique<Buffer>();
  }
  auto [inserted, _] = views_.emplace(key, std::make_unique<View>(this, buf.get()));
  return inserted->second.get();
}

TripleFactoryStats TripleFactory::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

TripleFactory::Buffer* TripleFactory::BufferFor(uint64_t tag, int member) {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  std::unique_ptr<Buffer>& buf = buffers_[{tag, member}];
  if (buf == nullptr) {
    buf = std::make_unique<Buffer>();
  }
  return buf.get();
}

std::unique_ptr<TripleFactory::PairIknp> TripleFactory::EstablishPair(net::NodeId lo,
                                                                      net::NodeId hi) {
  // Each node draws from its own stream keyed by (self, peer): lo its
  // choices and secrets, then its a; hi its a, then its choices and
  // secrets. Lo acts as extension sender first.
  auto prg_of = [&](net::NodeId self, net::NodeId peer) {
    return crypto::ChaCha20Prg::FromSeed(
        prg_seed_ * kSeedMix + 0xba5e,
        (static_cast<uint64_t>(self) << 32) | static_cast<uint32_t>(peer));
  };
  crypto::ChaCha20Prg lo_prg = prg_of(lo, hi);
  crypto::ChaCha20Prg hi_prg = prg_of(hi, lo);
  const net::SessionId session = kOfflineSessionNamespace;
  // One setup: the extension receiver announces, the extension sender
  // replies, and the announcer finishes.
  auto setup = [&](net::NodeId sender, crypto::ChaCha20Prg& sender_prg, net::NodeId receiver,
                   crypto::ChaCha20Prg& receiver_prg) {
    const ot::BaseOtAnnouncement announced =
        ot::BaseOtAnnounce(net_, receiver, sender, receiver_prg, session);
    const std::vector<bool> choices = ot::DrawIknpChoices(sender_prg);
    const ot::BaseOtReceiverOutput chosen_keys =
        ot::BaseOtRecv(net_, sender, receiver, choices, sender_prg, session);
    const ot::BaseOtSenderOutput key_pairs =
        ot::BaseOtFinish(net_, receiver, sender, announced, ot::kIknpKappa, session);
    return std::make_pair(ot::IknpSender(net_, sender, receiver, choices, chosen_keys, session),
                          ot::IknpReceiver(net_, receiver, sender, key_pairs, session));
  };
  auto [lo_sender, hi_receiver] = setup(lo, lo_prg, hi, hi_prg);
  auto [hi_sender, lo_receiver] = setup(hi, hi_prg, lo, lo_prg);
  return std::make_unique<PairIknp>(PairIknp{std::move(lo_sender), std::move(hi_receiver),
                                             std::move(hi_sender), std::move(lo_receiver)});
}

void TripleFactory::GenerateWave(const std::vector<TripleDemand>& demands_in) {
  Stopwatch wave_clock;
  std::vector<TripleDemand> demands;
  for (const TripleDemand& d : demands_in) {
    if (d.count > 0) {
      demands.push_back(d);
    }
  }
  std::sort(demands.begin(), demands.end(),
            [](const TripleDemand& x, const TripleDemand& y) { return x.tag < y.tag; });
  for (size_t d = 1; d < demands.size(); d++) {
    DSTRESS_CHECK(demands[d].tag != demands[d - 1].tag);  // tags name PRG streams
  }
  if (demands.empty()) {
    return;
  }

  // Wave layout, computed once before fan-out: participant set, each
  // participant's (demand, member) roles, and per unordered participant
  // pair the tag-sorted list of demands both nodes are in — the segments of
  // that pair's single bulk Extend.
  std::vector<net::NodeId> participants;
  for (const TripleDemand& d : demands) {
    participants.insert(participants.end(), d.parties.begin(), d.parties.end());
  }
  std::sort(participants.begin(), participants.end());
  participants.erase(std::unique(participants.begin(), participants.end()), participants.end());
  const int num_nodes = static_cast<int>(participants.size());
  std::map<net::NodeId, int> index_of;
  for (int p = 0; p < num_nodes; p++) {
    index_of[participants[p]] = p;
  }

  struct Shares {
    std::vector<PackedBits> a, b, c;  // indexed by member
  };
  std::vector<Shares> shares(demands.size());
  std::vector<std::vector<std::pair<size_t, int>>> roles(num_nodes);  // (demand, member)
  std::vector<std::map<int, int>> member_of(demands.size());          // participant -> member
  std::map<std::pair<int, int>, std::vector<size_t>> shared;          // pair -> demand indices
  std::vector<std::vector<Buffer*>> bufs(demands.size());
  std::vector<std::vector<uint64_t>> streams(demands.size());
  uint64_t wave_triples = 0;
  for (size_t d = 0; d < demands.size(); d++) {
    const TripleDemand& dem = demands[d];
    const int members = static_cast<int>(dem.parties.size());
    shares[d].a.resize(members);
    shares[d].b.resize(members);
    shares[d].c.resize(members);
    bufs[d].resize(members);
    streams[d].resize(members);
    wave_triples += dem.count;
    for (int m = 0; m < members; m++) {
      int p = index_of.at(dem.parties[m]);
      DSTRESS_CHECK(member_of[d].emplace(p, m).second);  // block nodes are distinct
      roles[p].push_back({d, m});
      Buffer* buf = BufferFor(dem.tag, m);
      bufs[d][m] = buf;
      std::lock_guard<std::mutex> lock(buf->mu);
      streams[d][m] = buf->waves_drawn++;
    }
    for (int i = 0; i < members; i++) {
      for (int j = i + 1; j < members; j++) {
        int pi = index_of.at(dem.parties[i]);
        int pj = index_of.at(dem.parties[j]);
        shared[{std::min(pi, pj), std::max(pi, pj)}].push_back(d);
      }
    }
  }

  // Pass 1, per participant: the local shares. a, b come from each
  // member's per-tag PRG stream (advanced once per wave — deterministic
  // regardless of pipelining), and c starts as the local product a AND b;
  // pass 2 folds in the cross terms.
  pool_.Run(num_nodes, [&](size_t p) {
    for (const auto& [d, m] : roles[p]) {
      const TripleDemand& dem = demands[d];
      size_t words = PackedWords(dem.count);
      auto prg = crypto::ChaCha20Prg::FromSeed(
          prg_seed_ * kSeedMix + ((dem.tag << 8) | static_cast<uint64_t>(m)), streams[d][m]);
      shares[d].a[m] = prg.NextWords(words);
      shares[d].b[m] = prg.NextWords(words);
      shares[d].c[m].assign(words, 0);
      for (size_t w = 0; w < words; w++) {
        shares[d].c[m][w] = shares[d].a[m][w] & shares[d].b[m][w];
      }
    }
  });

  // Pass 2, per co-hosting node pair (p < q): one task plays both ends of
  // the pair's exchange, so no task waits on another. Each pair's state is
  // slotted here, before the pass; a new pair's setup runs in its task.
  struct PairTask {
    int p, q;
    const std::vector<size_t>* segs;
    std::unique_ptr<PairIknp>* iknp;
  };
  std::vector<PairTask> pair_tasks;
  uint64_t new_pairs = 0;
  for (const auto& [pq, segs] : shared) {
    std::unique_ptr<PairIknp>& slot = pairs_[{participants[pq.first], participants[pq.second]}];
    new_pairs += slot == nullptr ? 1 : 0;
    pair_tasks.push_back({pq.first, pq.second, &segs, &slot});
  }
  // Pair tasks sharing a node XOR their cross terms into its c shares
  // under that node's lock; a and b are read-only in this pass.
  std::vector<std::mutex> c_mu(num_nodes);
  pool_.Run(pair_tasks.size(), [&](size_t k) {
    const auto [p, q, segs_ptr, slot] = pair_tasks[k];
    const std::vector<size_t>& segs = *segs_ptr;
    if (*slot == nullptr) {
      *slot = EstablishPair(participants[p], participants[q]);
    }
    PairIknp& iknp = **slot;
    size_t total = 0;
    for (size_t d : segs) {
      total += demands[d].count;
    }
    const size_t twords = PackedWords(total);

    // Concatenates node `x`'s per-segment bits (tag order — `segs` is
    // sorted because demands are) into one Extend-sized vector.
    auto concat = [&](int x, bool use_a) {
      PackedBits cat(twords, 0);
      size_t off = 0;
      for (size_t d : segs) {
        int m = member_of[d].at(x);
        const PackedBits& src = use_a ? shares[d].a[m] : shares[d].b[m];
        CopyBits(cat.data(), off, src.data(), 0, demands[d].count);
        off += demands[d].count;
      }
      return cat;
    };
    // XORs a concatenated delta back into node `x`'s per-segment c shares.
    auto scatter = [&](int x, const PackedBits& delta) {
      std::lock_guard<std::mutex> lock(c_mu[x]);
      size_t off = 0;
      for (size_t d : segs) {
        int m = member_of[d].at(x);
        XorBits(shares[d].c[m].data(), 0, delta.data(), off, demands[d].count);
        off += demands[d].count;
      }
    };
    // One direction: node `s` contributes its a sides, and node `r`'s
    // choice bits are its b shares. The sender keeps r0 as its cross-term
    // share and sends the correction r0 ^ r1 ^ a for every segment in one
    // message; the receiver's share is r ^ (b AND correction).
    auto extend = [&](ot::IknpSender& sender, int s, ot::IknpReceiver& receiver, int r) {
      const net::NodeId s_node = participants[s];
      const net::NodeId r_node = participants[r];
      const PackedBits b_cat = concat(r, /*use_a=*/false);
      ot::RandomOtChosen chosen = receiver.Extend(b_cat, total);
      ot::RandomOtPairs pairs = sender.Extend(total);
      const PackedBits a_cat = concat(s, /*use_a=*/true);
      ByteWriter corrections;
      for (size_t w = 0; w < twords; w++) {
        corrections.U64(pairs.r0[w] ^ pairs.r1[w] ^ a_cat[w]);
      }
      net_->Send(s_node, r_node, corrections.Take(), kOfflineSessionNamespace);
      scatter(s, pairs.r0);
      Bytes received = net_->Recv(r_node, s_node, kOfflineSessionNamespace);
      DSTRESS_CHECK(received.size() == twords * 8);
      ByteReader reader(received);
      PackedBits delta(twords, 0);
      for (size_t w = 0; w < twords; w++) {
        delta[w] = chosen.r[w] ^ (b_cat[w] & reader.U64());
      }
      scatter(r, delta);
    };
    extend(iknp.lo_sender, p, iknp.hi_receiver, q);
    extend(iknp.hi_sender, q, iknp.lo_receiver, p);
  });

  // Counted before the shares are dealt, so a consumer whose draw this
  // wave satisfies reads stats that include it.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.offline_seconds += wave_clock.ElapsedSeconds();
    stats_.waves += 1;
    stats_.triples += wave_triples;
    stats_.pair_sessions += new_pairs;
  }

  // Pass 3, per participant: deal the finished shares out to its views.
  pool_.Run(num_nodes, [&](size_t p) {
    for (const auto& [d, m] : roles[p]) {
      Buffer* buf = bufs[d][m];
      std::lock_guard<std::mutex> lock(buf->mu);
      AppendTriples(buf->pending, shares[d].a[m], shares[d].b[m], shares[d].c[m],
                    demands[d].count);
      buf->generated += demands[d].count;
      buf->cv.notify_all();
    }
  });
}

void TripleFactory::DispatcherLoop() {
  for (;;) {
    std::vector<TripleDemand> wave;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !pending_waves_.empty(); });
      if (shutdown_) {
        return;  // drop undealt waves; nothing consumes them past this point
      }
      wave = std::move(pending_waves_.front());
      pending_waves_.pop_front();
      queue_cv_.notify_all();  // wake an Enqueue blocked on backpressure
    }
    GenerateWave(wave);
  }
}

void TripleFactory::AddWaitSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.online_wait_seconds += seconds;
}

}  // namespace dstress::mpc
