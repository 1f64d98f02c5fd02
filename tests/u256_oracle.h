// Generic modular arithmetic over U256: the test-side oracle.
//
// Binary long division (Mod512) and the helpers built on it work for any
// modulus and are slow. No library code needs them: the field (fp.h) has
// its own special-form reduction, and the GLV split (ec.h) is exact integer
// arithmetic. Tests use them as an oracle that shares no code with either,
// e.g. fp_test's differential walks with modulus p and ec_test's scalar
// identities mod n.
#ifndef TESTS_U256_ORACLE_H_
#define TESTS_U256_ORACLE_H_

#include "src/common/check.h"
#include "src/crypto/u256.h"

namespace dstress::crypto {

// Generic (slow) modular reduction of a 512-bit value. Binary long division.
inline U256 Mod512(const U512& a, const U256& m) {
  DSTRESS_CHECK(!m.IsZero());
  // Binary long division over the 512-bit dividend, most significant bit
  // first. rem stays < m < 2^256 throughout, so the shift-in step needs one
  // overflow bit which we track explicitly.
  U256 rem;
  for (int bit = 511; bit >= 0; bit--) {
    uint64_t top = rem.w[3] >> 63;
    rem = Shl(rem, 1);
    uint64_t in = (a.w[bit >> 6] >> (bit & 63)) & 1;
    rem.w[0] |= in;
    if (top != 0 || Cmp(rem, m) >= 0) {
      SubWithBorrow(rem, m, &rem);
    }
  }
  return rem;
}

// Generic modular helpers built on Mod512.
inline U256 ModAdd(const U256& a, const U256& b, const U256& m) {
  U256 s;
  uint64_t carry = AddWithCarry(a, b, &s);
  if (carry != 0 || Cmp(s, m) >= 0) {
    SubWithBorrow(s, m, &s);
  }
  return s;
}

inline U256 ModSub(const U256& a, const U256& b, const U256& m) {
  U256 d;
  uint64_t borrow = SubWithBorrow(a, b, &d);
  if (borrow != 0) {
    AddWithCarry(d, m, &d);
  }
  return d;
}

inline U256 ModMul(const U256& a, const U256& b, const U256& m) {
  return Mod512(MulFull(a, b), m);
}

inline U256 ModPow(const U256& a, const U256& e, const U256& m) {
  U256 result = U256::One();
  U256 base = a;
  int top = e.BitLength();
  for (int i = 0; i <= top; i++) {
    if (e.Bit(i)) {
      result = ModMul(result, base, m);
    }
    base = ModMul(base, base, m);
  }
  return result;
}

// Modular inverse for odd modulus m with gcd(a, m) = 1 (binary extended
// gcd).
inline U256 ModInv(const U256& a, const U256& m) {
  DSTRESS_CHECK(!a.IsZero());
  DSTRESS_CHECK(m.IsOdd());
  // Binary extended GCD (classic algorithm; see HAC 14.61). Maintains
  //   u = A*a mod m,  v = C*a mod m
  // with A, C tracked modulo m using half-sized steps.
  U256 u = a;
  U256 v = m;
  U256 big_a = U256::One();
  U256 big_c = U256::Zero();
  auto halve = [&m](U256* x) {
    if (x->IsOdd()) {
      uint64_t carry = AddWithCarry(*x, m, x);
      *x = Shr(*x, 1);
      if (carry != 0) {
        x->w[3] |= 1ULL << 63;
      }
    } else {
      *x = Shr(*x, 1);
    }
  };
  while (!u.IsZero()) {
    while (!u.IsOdd()) {
      u = Shr(u, 1);
      halve(&big_a);
    }
    while (!v.IsOdd()) {
      v = Shr(v, 1);
      halve(&big_c);
    }
    if (Cmp(u, v) >= 0) {
      SubWithBorrow(u, v, &u);
      big_a = ModSub(big_a, big_c, m);
    } else {
      SubWithBorrow(v, u, &v);
      big_c = ModSub(big_c, big_a, m);
    }
  }
  // gcd is in v; callers must pass coprime inputs.
  DSTRESS_CHECK(v == U256::One());
  return big_c;
}

}  // namespace dstress::crypto

#endif  // TESTS_U256_ORACLE_H_
