// Fixed-width 256-bit unsigned integer arithmetic.
//
// This is the bottom layer of the from-scratch cryptographic stack: the
// secp256k1 field (fp.h) loads and encodes through U256, and the
// elliptic-curve group (ec.h) splits its scalars with the full product and
// two's-complement subtraction below. Limbs are stored little-endian (w[0]
// is least significant); 128-bit intermediates use the compiler's
// unsigned __int128.
#ifndef SRC_CRYPTO_U256_H_
#define SRC_CRYPTO_U256_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/bytes.h"

namespace dstress::crypto {

struct U256 {
  // Little-endian limbs: value = sum_i w[i] * 2^(64 i).
  uint64_t w[4] = {0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(uint64_t v) : w{v, 0, 0, 0} {}
  constexpr U256(uint64_t w0, uint64_t w1, uint64_t w2, uint64_t w3) : w{w0, w1, w2, w3} {}

  static U256 Zero() { return U256(); }
  static U256 One() { return U256(1); }

  // Parses a big-endian hex string of at most 64 digits.
  static U256 FromHex(const std::string& hex);
  // Big-endian 32-byte conversions (the standard wire encoding).
  static U256 FromBytesBe(const uint8_t* bytes32);
  void ToBytesBe(uint8_t* bytes32) const;
  std::string ToHex() const;

  bool IsZero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  bool IsOdd() const { return (w[0] & 1) != 0; }
  // Returns bit i (0 = least significant).
  bool Bit(int i) const { return (w[i >> 6] >> (i & 63)) & 1; }
  // Index of the highest set bit, or -1 if zero.
  int BitLength() const;

  bool operator==(const U256& o) const {
    return w[0] == o.w[0] && w[1] == o.w[1] && w[2] == o.w[2] && w[3] == o.w[3];
  }
  bool operator!=(const U256& o) const { return !(*this == o); }
};

// Comparison: -1, 0, +1 as a <, ==, > b.
int Cmp(const U256& a, const U256& b);

// out = a + b, returns the carry bit.
uint64_t AddWithCarry(const U256& a, const U256& b, U256* out);
// out = a - b, returns the borrow bit.
uint64_t SubWithBorrow(const U256& a, const U256& b, U256* out);

// 512-bit product of two 256-bit values, little-endian limbs.
struct U512 {
  uint64_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
};
U512 MulFull(const U256& a, const U256& b);

// Logical shifts. Shift amounts in [0, 255].
U256 Shl(const U256& a, int bits);
U256 Shr(const U256& a, int bits);

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_U256_H_
