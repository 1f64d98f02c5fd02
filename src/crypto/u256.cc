#include "src/crypto/u256.h"

#include "src/common/check.h"

namespace dstress::crypto {

using uint128 = unsigned __int128;

U256 U256::FromHex(const std::string& hex) {
  DSTRESS_CHECK(hex.size() <= 64);
  std::string padded(64 - hex.size(), '0');
  padded += hex;
  Bytes raw = HexDecode(padded);
  return FromBytesBe(raw.data());
}

U256 U256::FromBytesBe(const uint8_t* bytes32) {
  U256 out;
  for (int limb = 0; limb < 4; limb++) {
    uint64_t v = 0;
    for (int b = 0; b < 8; b++) {
      v = (v << 8) | bytes32[(3 - limb) * 8 + b];
    }
    out.w[limb] = v;
  }
  return out;
}

void U256::ToBytesBe(uint8_t* bytes32) const {
  for (int limb = 0; limb < 4; limb++) {
    uint64_t v = w[limb];
    for (int b = 7; b >= 0; b--) {
      bytes32[(3 - limb) * 8 + b] = static_cast<uint8_t>(v);
      v >>= 8;
    }
  }
}

std::string U256::ToHex() const {
  uint8_t raw[32];
  ToBytesBe(raw);
  return HexEncode(raw, 32);
}

int U256::BitLength() const {
  for (int limb = 3; limb >= 0; limb--) {
    if (w[limb] != 0) {
      return limb * 64 + 63 - __builtin_clzll(w[limb]);
    }
  }
  return -1;
}

int Cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; i--) {
    if (a.w[i] < b.w[i]) {
      return -1;
    }
    if (a.w[i] > b.w[i]) {
      return 1;
    }
  }
  return 0;
}

uint64_t AddWithCarry(const U256& a, const U256& b, U256* out) {
  uint128 carry = 0;
  for (int i = 0; i < 4; i++) {
    uint128 s = static_cast<uint128>(a.w[i]) + b.w[i] + carry;
    out->w[i] = static_cast<uint64_t>(s);
    carry = s >> 64;
  }
  return static_cast<uint64_t>(carry);
}

uint64_t SubWithBorrow(const U256& a, const U256& b, U256* out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; i++) {
    uint128 d = static_cast<uint128>(a.w[i]) - b.w[i] - borrow;
    out->w[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow;
}

U512 MulFull(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; i++) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; j++) {
      uint128 cur = static_cast<uint128>(a.w[i]) * b.w[j] + out.w[i + j] + carry;
      out.w[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.w[i + 4] = carry;
  }
  return out;
}

U256 Shl(const U256& a, int bits) {
  DSTRESS_DCHECK(bits >= 0 && bits < 256);
  U256 out;
  int limb_shift = bits / 64;
  int bit_shift = bits % 64;
  for (int i = 3; i >= 0; i--) {
    uint64_t v = 0;
    int src = i - limb_shift;
    if (src >= 0) {
      v = a.w[src] << bit_shift;
      if (bit_shift != 0 && src - 1 >= 0) {
        v |= a.w[src - 1] >> (64 - bit_shift);
      }
    }
    out.w[i] = v;
  }
  return out;
}

U256 Shr(const U256& a, int bits) {
  DSTRESS_DCHECK(bits >= 0 && bits < 256);
  U256 out;
  int limb_shift = bits / 64;
  int bit_shift = bits % 64;
  for (int i = 0; i < 4; i++) {
    uint64_t v = 0;
    int src = i + limb_shift;
    if (src < 4) {
      v = a.w[src] >> bit_shift;
      if (bit_shift != 0 && src + 1 < 4) {
        v |= a.w[src + 1] << (64 - bit_shift);
      }
    }
    out.w[i] = v;
  }
  return out;
}

}  // namespace dstress::crypto
