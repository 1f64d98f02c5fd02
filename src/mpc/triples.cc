#include "src/mpc/triples.h"

#include "src/common/bits.h"
#include "src/common/check.h"

namespace dstress::mpc {

namespace {

PackedBits RandomPacked(crypto::ChaCha20Prg& prg, size_t words) {
  PackedBits out(words);
  prg.Fill(reinterpret_cast<uint8_t*>(out.data()), words * 8);
  return out;
}

}  // namespace

BitTriples SliceTriples(const BitTriples& src, size_t start, size_t count) {
  DSTRESS_CHECK(start + count <= src.count);
  size_t words = PackedWords(count);
  BitTriples out;
  out.count = count;
  out.a.assign(words, 0);
  out.b.assign(words, 0);
  out.c.assign(words, 0);
  CopyBits(out.a.data(), 0, src.a.data(), start, count);
  CopyBits(out.b.data(), 0, src.b.data(), start, count);
  if (!src.c.empty()) {
    CopyBits(out.c.data(), 0, src.c.data(), start, count);
  }
  return out;
}

DealerTripleSource::DealerTripleSource(int party_index, int num_parties, uint64_t dealer_seed)
    : party_index_(party_index), num_parties_(num_parties), dealer_seed_(dealer_seed) {
  DSTRESS_CHECK(party_index >= 0 && party_index < num_parties);
}

BitTriples DealerTripleSource::Generate(size_t count) {
  size_t words = PackedWords(count);
  // Re-derive the dealer tape from the shared seed. Every party regenerates
  // the same streams, so shares stay consistent without communication —
  // this is precisely why dealer mode is a simulation of an offline phase
  // rather than a secure protocol. Each call claims the next 4*num_parties
  // block of stream ids under the fixed seed (see calls_ in the header).
  //
  // Parties j > 0 hold plain PRG streams (a_j, b_j, c_j) and derive only
  // their own; party 0's c closes the relation c = a AND b, which is the
  // only place the other parties' streams are needed. The seed code had
  // every party derive every stream — an 8x tape-derivation overhead at
  // block size 8 that the batched data plane's bulk draws made visible.
  uint64_t stream_base = calls_ * (4ULL * static_cast<uint64_t>(num_parties_));
  calls_ += 1;
  auto stream = [&](int j, uint64_t role) {
    auto prg = crypto::ChaCha20Prg::FromSeed(dealer_seed_, stream_base + 4ULL * j + role);
    return RandomPacked(prg, words);
  };
  BitTriples mine;
  mine.count = count;
  mine.a = stream(party_index_, 0);
  mine.b = stream(party_index_, 1);
  if (party_index_ != 0) {
    mine.c = stream(party_index_, 2);
    return mine;
  }
  PackedBits a_total = mine.a;
  PackedBits b_total = mine.b;
  mine.c.assign(words, 0);
  for (int j = 1; j < num_parties_; j++) {
    PackedBits a_j = stream(j, 0);
    PackedBits b_j = stream(j, 1);
    PackedBits c_j = stream(j, 2);
    for (size_t w = 0; w < words; w++) {
      a_total[w] ^= a_j[w];
      b_total[w] ^= b_j[w];
      mine.c[w] ^= c_j[w];
    }
  }
  for (size_t w = 0; w < words; w++) {
    mine.c[w] ^= a_total[w] & b_total[w];
  }
  return mine;
}

OtTripleSource::OtTripleSource(net::Transport* net, std::vector<net::NodeId> parties,
                               int my_index, crypto::ChaCha20Prg prg, net::SessionId session)
    : net_(net),
      parties_(std::move(parties)),
      my_index_(my_index),
      prg_(std::move(prg)),
      session_(session) {
  DSTRESS_CHECK(my_index_ >= 0 && my_index_ < static_cast<int>(parties_.size()));
}

int OtTripleSource::RoundCount() const {
  int n = static_cast<int>(parties_.size());
  int m = (n % 2 == 0) ? n : n + 1;
  return m - 1;
}

int OtTripleSource::PeerInRound(int round) const {
  // Circle-method tournament over m players (m even; the last slot is a bye
  // when the real party count is odd). Slot m-1 is fixed; the others rotate.
  int n = static_cast<int>(parties_.size());
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
    if (p1 == my_index_ || p2 == my_index_) {
      int peer = (p1 == my_index_) ? p2 : p1;
      if (peer >= n) {
        return -1;  // bye against the padding slot
      }
      return peer;
    }
  }
  return -1;
}

void OtTripleSource::EnsureSetup() {
  if (setup_done_) {
    return;
  }
  for (int round = 0; round < RoundCount(); round++) {
    int peer = PeerInRound(round);
    if (peer < 0) {
      continue;
    }
    net::NodeId self_node = parties_[my_index_];
    net::NodeId peer_node = parties_[peer];
    auto session = std::make_unique<PeerIknp>();
    if (my_index_ < peer) {
      // Direction lower-as-extension-sender first, then the reverse.
      session->sender =
          std::make_unique<ot::IknpSender>(net_, self_node, peer_node, prg_, session_);
      session->receiver =
          std::make_unique<ot::IknpReceiver>(net_, self_node, peer_node, prg_, session_);
    } else {
      session->receiver =
          std::make_unique<ot::IknpReceiver>(net_, self_node, peer_node, prg_, session_);
      session->sender =
          std::make_unique<ot::IknpSender>(net_, self_node, peer_node, prg_, session_);
    }
    sessions_.emplace(peer, std::move(session));
  }
  setup_done_ = true;
}

BitTriples OtTripleSource::Generate(size_t count) {
  EnsureSetup();
  size_t words = PackedWords(count);

  BitTriples mine;
  mine.count = count;
  mine.a = RandomPacked(prg_, words);
  mine.b = RandomPacked(prg_, words);
  mine.c.assign(words, 0);
  for (size_t w = 0; w < words; w++) {
    mine.c[w] = mine.a[w] & mine.b[w];
  }

  net::NodeId self_node = parties_[my_index_];
  for (int round = 0; round < RoundCount(); round++) {
    int peer = PeerInRound(round);
    if (peer < 0) {
      continue;
    }
    PeerIknp& session = *sessions_.at(peer);
    net::NodeId peer_node = parties_[peer];

    auto run_as_sender = [&] {
      // I contribute a_i; the peer's choice bits are its b_j. I keep r0 as
      // my share of a_i AND b_j and send the correction r0^r1^a_i.
      ot::RandomOtPairs pairs = session.sender->Extend(count);
      ByteWriter corrections;
      for (size_t w = 0; w < words; w++) {
        corrections.U64(pairs.r0[w] ^ pairs.r1[w] ^ mine.a[w]);
        mine.c[w] ^= pairs.r0[w];
      }
      net_->Send(self_node, peer_node, corrections.Take(), session_);
    };
    auto run_as_receiver = [&] {
      // My choice bits are b_i; I receive r_{b} plus the correction and end
      // with r0 ^ (b_i AND a_peer).
      ot::RandomOtChosen chosen = session.receiver->Extend(mine.b, count);
      Bytes corrections = net_->Recv(self_node, peer_node, session_);
      DSTRESS_CHECK(corrections.size() == words * 8);
      ByteReader reader(corrections);
      for (size_t w = 0; w < words; w++) {
        uint64_t d = reader.U64();
        mine.c[w] ^= chosen.r[w] ^ (mine.b[w] & d);
      }
    };

    if (my_index_ < peer) {
      run_as_sender();
      run_as_receiver();
    } else {
      run_as_receiver();
      run_as_sender();
    }
  }
  return mine;
}

}  // namespace dstress::mpc
