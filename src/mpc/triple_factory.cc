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

// Circle-method tournament over n players: rounds 0 .. TournamentRounds(n)-1
// enumerate all unordered pairs, one perfect matching per round (a padding
// slot gives one player a bye per round when n is odd).
int TournamentRounds(int n) {
  int m = (n % 2 == 0) ? n : n + 1;
  return m - 1;
}

int TournamentPeer(int n, int me, int round) {
  int m = (n % 2 == 0) ? n : n + 1;
  auto slot_player = [&](int slot) -> int {
    if (slot == m - 1) {
      return m - 1;
    }
    return (round + slot) % (m - 1);
  };
  for (int k = 0; k < m / 2; k++) {
    int p1 = slot_player(k);
    int p2 = slot_player(m - 1 - k);
    if (p1 == me || p2 == me) {
      int peer = (p1 == me) ? p2 : p1;
      if (peer >= n) {
        return -1;  // bye against the padding slot
      }
      return peer;
    }
  }
  return -1;
}

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

TripleFactory::TripleFactory(net::Transport* net, TripleFactoryOptions options)
    : net_(net), options_(options), pool_(1) {
  DSTRESS_CHECK(options_.max_pending_waves >= 1);
  if (options_.pipeline) {
    dispatcher_ = std::thread([this] { DispatcherLoop(); });
  }
}

TripleFactory::~TripleFactory() {
  if (dispatcher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      shutdown_ = true;
    }
    queue_cv_.notify_all();
    dispatcher_.join();
  }
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
  if (!options_.pipeline) {
    GenerateWave(demands);
    return;
  }
  std::unique_lock<std::mutex> lock(queue_mu_);
  // Bounded pool: the factory runs at most max_pending_waves ahead of the
  // online phase; beyond that the enqueuer (the runtime's scheduler) blocks
  // here, which is the backpressure.
  queue_cv_.wait(lock, [&] {
    return static_cast<int>(pending_waves_.size()) < options_.max_pending_waves;
  });
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

TripleFactory::PeerIknp& TripleFactory::PairFor(net::NodeId self, net::NodeId peer) {
  std::map<net::NodeId, std::unique_ptr<PeerIknp>>* mine;
  {
    std::lock_guard<std::mutex> lock(pairs_mu_);
    mine = &pair_sessions_[self];
  }
  auto it = mine->find(peer);
  if (it != mine->end()) {
    return *it->second;
  }
  // First co-occurrence of this node pair in any wave: pay the base-OT
  // setup once for the whole run. Construction order is keyed by node id
  // (lower id acts as extension sender first) so both endpoints agree.
  auto prg = crypto::ChaCha20Prg::FromSeed(
      options_.prg_seed * kSeedMix + 0xba5e,
      (static_cast<uint64_t>(self) << 32) | static_cast<uint32_t>(peer));
  auto pair = std::make_unique<PeerIknp>();
  if (self < peer) {
    pair->sender = std::make_unique<ot::IknpSender>(net_, self, peer, prg, options_.session);
    pair->receiver = std::make_unique<ot::IknpReceiver>(net_, self, peer, prg, options_.session);
  } else {
    pair->receiver = std::make_unique<ot::IknpReceiver>(net_, self, peer, prg, options_.session);
    pair->sender = std::make_unique<ot::IknpSender>(net_, self, peer, prg, options_.session);
  }
  std::unique_ptr<PeerIknp>& slot = (*mine)[peer];
  slot = std::move(pair);
  if (self < peer) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.pair_sessions += 1;  // count unordered pairs once
  }
  return *slot;
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

  // One task per participating node; whole-group admission on the private
  // pool keeps every node runnable at once, which the tournament's blocking
  // pairwise exchanges require (same invariant as the runtime's phase
  // scheduling, see worker_pool.h).
  const int rounds = TournamentRounds(num_nodes);
  pool_.RunGrouped(1, num_nodes, [&](size_t, size_t task) {
    const int p = static_cast<int>(task);
    const net::NodeId self = participants[p];

    // Local shares: a, b from this member's per-tag PRG stream (advanced
    // once per wave — deterministic regardless of pipelining), c seeded
    // with the local product a AND b; the tournament below folds in the
    // cross terms.
    for (const auto& [d, m] : roles[p]) {
      const TripleDemand& dem = demands[d];
      size_t words = PackedWords(dem.count);
      auto prg = crypto::ChaCha20Prg::FromSeed(
          options_.prg_seed * kSeedMix + ((dem.tag << 8) | static_cast<uint64_t>(m)),
          streams[d][m]);
      shares[d].a[m] = prg.NextWords(words);
      shares[d].b[m] = prg.NextWords(words);
      shares[d].c[m].assign(words, 0);
      for (size_t w = 0; w < words; w++) {
        shares[d].c[m][w] = shares[d].a[m][w] & shares[d].b[m][w];
      }
    }

    for (int round = 0; round < rounds; round++) {
      const int q = TournamentPeer(num_nodes, p, round);
      if (q < 0) {
        continue;
      }
      auto it = shared.find({std::min(p, q), std::max(p, q)});
      if (it == shared.end()) {
        continue;  // no co-hosted role group with this peer
      }
      const std::vector<size_t>& segs = it->second;
      const net::NodeId peer = participants[q];
      size_t total = 0;
      for (size_t d : segs) {
        total += demands[d].count;
      }
      size_t twords = PackedWords(total);
      PeerIknp& session = PairFor(self, peer);

      // Concatenate this node's per-segment bits (tag order — `segs` is
      // sorted because demands are) into one Extend-sized vector.
      auto concat = [&](bool use_a) {
        PackedBits cat(twords, 0);
        size_t off = 0;
        for (size_t d : segs) {
          int m = member_of[d].at(p);
          const PackedBits& src = use_a ? shares[d].a[m] : shares[d].b[m];
          CopyBits(cat.data(), off, src.data(), 0, demands[d].count);
          off += demands[d].count;
        }
        return cat;
      };
      // XOR a concatenated delta back into the per-segment c shares.
      auto scatter = [&](const PackedBits& delta) {
        size_t off = 0;
        for (size_t d : segs) {
          int m = member_of[d].at(p);
          XorBits(shares[d].c[m].data(), 0, delta.data(), off, demands[d].count);
          off += demands[d].count;
        }
      };

      auto run_as_sender = [&] {
        // I contribute the a sides; the peer's choice bits are its b
        // shares. I keep r0 as my cross-term share and send the correction
        // r0 ^ r1 ^ a for every segment in one message.
        ot::RandomOtPairs pairs = session.sender->Extend(total);
        PackedBits a_cat = concat(/*use_a=*/true);
        ByteWriter corrections;
        for (size_t w = 0; w < twords; w++) {
          corrections.U64(pairs.r0[w] ^ pairs.r1[w] ^ a_cat[w]);
        }
        net_->Send(self, peer, corrections.Take(), options_.session);
        scatter(pairs.r0);
      };
      auto run_as_receiver = [&] {
        PackedBits b_cat = concat(/*use_a=*/false);
        ot::RandomOtChosen chosen = session.receiver->Extend(b_cat, total);
        Bytes corrections = net_->Recv(self, peer, options_.session);
        DSTRESS_CHECK(corrections.size() == twords * 8);
        ByteReader reader(corrections);
        PackedBits delta(twords, 0);
        for (size_t w = 0; w < twords; w++) {
          delta[w] = chosen.r[w] ^ (b_cat[w] & reader.U64());
        }
        scatter(delta);
      };

      if (self < peer) {
        run_as_sender();
        run_as_receiver();
      } else {
        run_as_receiver();
        run_as_sender();
      }
    }

    // Deal the finished shares out to this node's views. Per-(demand,
    // member) arrays are owned by this task, so only the buffer append
    // needs the lock.
    for (const auto& [d, m] : roles[p]) {
      Buffer* buf = bufs[d][m];
      std::lock_guard<std::mutex> lock(buf->mu);
      AppendTriples(buf->pending, shares[d].a[m], shares[d].b[m], shares[d].c[m],
                    demands[d].count);
      buf->generated += demands[d].count;
      buf->cv.notify_all();
    }
  });

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.offline_seconds += wave_clock.ElapsedSeconds();
  stats_.waves += 1;
  stats_.triples += wave_triples;
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
