#include "src/mpc/sharing.h"

#include "src/common/check.h"

namespace dstress::mpc {

std::vector<BitVector> ShareBits(const BitVector& bits, int parties, crypto::ChaCha20Prg& prg) {
  DSTRESS_CHECK(parties >= 1);
  std::vector<BitVector> shares(parties);
  for (int p = 0; p + 1 < parties; p++) {
    shares[p].resize(bits.size());
    for (auto& b : shares[p]) {
      b = prg.NextBit() ? 1 : 0;
    }
  }
  BitVector& last = shares[parties - 1];
  last = bits;
  for (int p = 0; p + 1 < parties; p++) {
    for (size_t i = 0; i < bits.size(); i++) {
      last[i] ^= shares[p][i];
    }
  }
  return shares;
}

BitVector ReconstructBits(const std::vector<BitVector>& shares) {
  DSTRESS_CHECK(!shares.empty());
  BitVector out = shares[0];
  for (size_t p = 1; p < shares.size(); p++) {
    DSTRESS_CHECK(shares[p].size() == out.size());
    for (size_t i = 0; i < out.size(); i++) {
      out[i] ^= shares[p][i];
    }
  }
  return out;
}

BitVector WordToBits(uint64_t value, int bits) {
  BitVector out(bits);
  StoreWordBits(value, bits, out.data());
  return out;
}

void StoreWordBits(uint64_t value, int bits, uint8_t* dst) {
  for (int i = 0; i < bits; i++) {
    dst[i] = (value >> i) & 1;
  }
}

uint64_t BitsToWord(const BitVector& bits, size_t offset, int count) {
  DSTRESS_CHECK(offset + count <= bits.size());
  uint64_t v = 0;
  for (int i = 0; i < count; i++) {
    v |= static_cast<uint64_t>(bits[offset + i] & 1) << i;
  }
  return v;
}

int64_t BitsToSignedWord(const BitVector& bits, size_t offset, int count) {
  uint64_t v = BitsToWord(bits, offset, count);
  if (count < 64 && (v >> (count - 1)) & 1) {
    v |= ~0ULL << count;
  }
  return static_cast<int64_t>(v);
}

void AppendBits(BitVector* dst, const BitVector& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

}  // namespace dstress::mpc
