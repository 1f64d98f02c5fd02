#include "src/ot/iknp.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/sha256.h"

namespace dstress::ot {

namespace {

// Expands a 16-byte base-OT key into a ChaCha20 PRG.
crypto::ChaCha20Prg PrgFromKey(const OtKey& key, uint64_t stream_id) {
  auto digest = crypto::Sha256::Hash(key.data(), key.size());
  std::array<uint8_t, 32> full;
  std::memcpy(full.data(), digest.data(), 32);
  return crypto::ChaCha20Prg(full, stream_id);
}

}  // namespace

void TransposeColumns(const std::vector<PackedBits>& cols, size_t count, uint64_t* rows) {
  // Block b holds OTs [64b, 64b + 64); half h holds columns [64h, 64h + 64).
  // Word r of a block is column 64h + r; after the transpose, word c is the
  // h-th half of OT 64b + c's row.
  uint64_t block[64];
  for (size_t b = 0; b < PackedWords(count); b++) {
    const size_t ots = std::min<size_t>(64, count - 64 * b);
    for (int h = 0; h < kIknpKappa / 64; h++) {
      for (int r = 0; r < 64; r++) {
        block[r] = cols[64 * h + r][b];
      }
      TransposeBits64x64(block);
      for (size_t c = 0; c < ots; c++) {
        rows[2 * (64 * b + c) + h] = block[c];
      }
    }
  }
}

std::vector<bool> DrawIknpChoices(crypto::ChaCha20Prg& prg) {
  std::vector<bool> choices(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    choices[i] = prg.NextBit();
  }
  return choices;
}

IknpSender::IknpSender(net::Transport* net, net::NodeId self, net::NodeId peer,
                       const std::vector<bool>& choices, const BaseOtReceiverOutput& base,
                       net::SessionId session)
    : net_(net), self_(self), peer_(peer), session_(session) {
  // Extension sender = base-OT receiver with choice vector s.
  DSTRESS_CHECK(choices.size() == static_cast<size_t>(kIknpKappa));
  DSTRESS_CHECK(base.keys.size() == static_cast<size_t>(kIknpKappa));
  s_bits_.assign(2, 0);
  seed_prg_.reserve(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    SetBit(s_bits_, i, choices[i]);
    seed_prg_.push_back(PrgFromKey(base.keys[i], static_cast<uint64_t>(i)));
  }
}

RandomOtPairs IknpSender::Extend(size_t count) {
  size_t words = PackedWords(count);
  Bytes u_block = net_->Recv(self_, peer_, session_);
  DSTRESS_CHECK(u_block.size() == static_cast<size_t>(kIknpKappa) * words * 8);

  std::vector<PackedBits> q_cols(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    PackedBits q = seed_prg_[i].NextWords(words);
    if (GetBit(s_bits_, static_cast<size_t>(i))) {
      const uint8_t* u = u_block.data() + static_cast<size_t>(i) * words * 8;
      for (size_t w = 0; w < words; w++) {
        uint64_t uw;
        std::memcpy(&uw, u + w * 8, 8);
        q[w] ^= uw;
      }
    }
    q_cols[i] = std::move(q);
  }

  std::vector<uint64_t> rows(count * 2);
  TransposeColumns(q_cols, count, rows.data());

  RandomOtPairs out;
  out.count = count;
  out.r0.resize(words);
  out.r1.resize(words);
  const uint64_t no_mask[2] = {0, 0};
  crypto::ChaCha20HashBits(rows.data(), count, ot_counter_, no_mask, kCrHashTag, out.r0.data());
  crypto::ChaCha20HashBits(rows.data(), count, ot_counter_, s_bits_.data(), kCrHashTag,
                           out.r1.data());
  ot_counter_ += count;
  return out;
}

IknpReceiver::IknpReceiver(net::Transport* net, net::NodeId self, net::NodeId peer,
                           const BaseOtSenderOutput& base, net::SessionId session)
    : net_(net), self_(self), peer_(peer), session_(session) {
  DSTRESS_CHECK(base.keys0.size() == static_cast<size_t>(kIknpKappa));
  prg0_.reserve(kIknpKappa);
  prg1_.reserve(kIknpKappa);
  for (int i = 0; i < kIknpKappa; i++) {
    prg0_.push_back(PrgFromKey(base.keys0[i], static_cast<uint64_t>(i)));
    prg1_.push_back(PrgFromKey(base.keys1[i], static_cast<uint64_t>(i)));
  }
}

RandomOtChosen IknpReceiver::Extend(const PackedBits& choices, size_t count) {
  size_t words = PackedWords(count);
  DSTRESS_CHECK(choices.size() >= words);

  // Column i of u is t_i ^ PRG(k_i^1) ^ choices. The message is allocated
  // once at its size, and the mask is drawn straight into it.
  std::vector<PackedBits> t_cols(kIknpKappa);
  Bytes u_block(static_cast<size_t>(kIknpKappa) * words * 8);
  for (int i = 0; i < kIknpKappa; i++) {
    PackedBits t = prg0_[i].NextWords(words);
    uint8_t* u = u_block.data() + static_cast<size_t>(i) * words * 8;
    prg1_[i].Fill(u, words * 8);
    for (size_t w = 0; w < words; w++) {
      uint64_t uw;
      std::memcpy(&uw, u + w * 8, 8);
      uw ^= t[w] ^ choices[w];
      std::memcpy(u + w * 8, &uw, 8);
    }
    t_cols[i] = std::move(t);
  }
  net_->Send(self_, peer_, std::move(u_block), session_);

  std::vector<uint64_t> rows(count * 2);
  TransposeColumns(t_cols, count, rows.data());

  RandomOtChosen out;
  out.count = count;
  out.r.resize(words);
  const uint64_t no_mask[2] = {0, 0};
  crypto::ChaCha20HashBits(rows.data(), count, ot_counter_, no_mask, kCrHashTag, out.r.data());
  ot_counter_ += count;
  return out;
}

}  // namespace dstress::ot
