#include "src/mpc/triples.h"

#include "src/common/check.h"
#include "src/crypto/chacha20.h"

namespace dstress::mpc {

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
    return prg.NextWords(words);
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

}  // namespace dstress::mpc
