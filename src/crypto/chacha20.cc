#include "src/crypto/chacha20.h"

#include <cstring>

#include "src/common/check.h"
#include "src/crypto/sha256.h"

namespace dstress::crypto {

namespace {

uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace

void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]) {
  uint32_t state[16];
  for (int i = 0; i < 4; i++) {
    state[i] = kChaChaSigma[i];
  }
  for (int i = 0; i < 8; i++) {
    state[4 + i] = LoadLe32(key + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; i++) {
    state[13 + i] = LoadLe32(nonce + 4 * i);
  }

  uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  ChaChaRounds(x);
  for (int i = 0; i < 16; i++) {
    uint32_t v = x[i] + state[i];
    std::memcpy(out + 4 * i, &v, 4);
  }
}

ChaCha20Prg::ChaCha20Prg(const std::array<uint8_t, 32>& key, uint64_t stream_id) {
  std::memcpy(key_, key.data(), 32);
  std::memset(nonce_, 0, sizeof(nonce_));
  std::memcpy(nonce_, &stream_id, 8);
}

ChaCha20Prg ChaCha20Prg::FromSeed(uint64_t seed, uint64_t stream_id) {
  uint8_t seed_bytes[8];
  std::memcpy(seed_bytes, &seed, 8);
  Sha256Digest digest = Sha256::Hash(seed_bytes, 8);
  std::array<uint8_t, 32> key;
  std::memcpy(key.data(), digest.data(), 32);
  return ChaCha20Prg(key, stream_id);
}

void ChaCha20Prg::Refill() {
  ChaCha20Block(key_, nonce_, counter_, block_);
  counter_++;
  DSTRESS_CHECK(counter_ != 0);  // 256 GiB per stream is far beyond any run.
  pos_ = 0;
}

void ChaCha20Prg::Fill(uint8_t* out, size_t len) {
  while (len > 0) {
    if (pos_ == 64) {
      Refill();
    }
    size_t take = 64 - pos_;
    if (take > len) {
      take = len;
    }
    std::memcpy(out, block_ + pos_, take);
    pos_ += take;
    out += take;
    len -= take;
  }
}

Bytes ChaCha20Prg::NextBytes(size_t len) {
  Bytes out(len);
  Fill(out.data(), len);
  return out;
}

uint8_t ChaCha20Prg::NextByte() {
  uint8_t b;
  Fill(&b, 1);
  return b;
}

uint64_t ChaCha20Prg::NextU64() {
  uint64_t v;
  Fill(reinterpret_cast<uint8_t*>(&v), 8);
  return v;
}

bool ChaCha20Prg::NextBit() {
  if (bits_left_ == 0) {
    bit_byte_ = NextByte();
    bits_left_ = 8;
  }
  bool bit = (bit_byte_ & 1) != 0;
  bit_byte_ >>= 1;
  bits_left_--;
  return bit;
}

uint64_t ChaCha20Prg::NextBelow(uint64_t bound) {
  DSTRESS_CHECK(bound > 0);
  uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

U256 ChaCha20Prg::NextU256() {
  uint8_t raw[32];
  Fill(raw, 32);
  return U256::FromBytesBe(raw);
}

U256 ChaCha20Prg::NextScalar(const U256& order) {
  // Draw only BitLength(order) bits so the acceptance probability is at
  // least 1/2 regardless of how small the order is; sampling full 256-bit
  // values would essentially never terminate for short orders.
  const int bits = order.BitLength() + 1;  // BitLength is the top set bit index
  for (;;) {
    U256 v = NextU256();
    if (bits < 256) {
      v = Shr(v, 256 - bits);
    }
    if (!v.IsZero() && Cmp(v, order) < 0) {
      return v;
    }
  }
}

}  // namespace dstress::crypto
