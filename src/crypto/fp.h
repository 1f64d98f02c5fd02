// Arithmetic in the secp256k1 base field GF(p), p = 2^256 - 2^32 - 977.
//
// An element is held as five 52-bit limbs, value = sum_i n[i] * 2^(52 i),
// reduced lazily: every operation leaves its result *weakly* reduced (limbs
// 0-3 below 2^52, limb 4 below 2^49, so the value is below 2^257 and
// congruent to the element), and only comparison, parity and encoding
// normalize into [0, p). The 12 spare bits per limb absorb the carries of a
// schoolbook product, which then folds its high columns into the low ones
// as they are produced, since 2^260 ≡ 0x1000003D10 (mod p). This is the
// representation and multiplication schedule of libsecp256k1's field_5x52
// (https://github.com/bitcoin-core/secp256k1), written afresh here.
#ifndef SRC_CRYPTO_FP_H_
#define SRC_CRYPTO_FP_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/crypto/u256.h"

namespace dstress::crypto {

class Fp {
 public:
  // p = FFFFFFFF...FFFFFFFE FFFFFC2F.
  static const U256& P();

  constexpr Fp() = default;
  // Loads any 256-bit value; values in [p, 2^256) stay unreduced until a
  // normalizing operation (==, IsZero, IsOdd, raw()).
  static Fp FromU256(const U256& v) {
    Fp out;
    out.n_[0] = v.w[0] & kMask;
    out.n_[1] = ((v.w[0] >> 52) | (v.w[1] << 12)) & kMask;
    out.n_[2] = ((v.w[1] >> 40) | (v.w[2] << 24)) & kMask;
    out.n_[3] = ((v.w[2] >> 28) | (v.w[3] << 36)) & kMask;
    out.n_[4] = v.w[3] >> 16;
    return out;
  }
  static Fp FromUint64(uint64_t v) { return FromU256(U256(v)); }
  static Fp FromHex(const std::string& hex) { return FromU256(U256::FromHex(hex)); }

  // The element's unique representative in [0, p).
  U256 raw() const {
    Fp t = Normalized();
    return U256(t.n_[0] | (t.n_[1] << 52), (t.n_[1] >> 12) | (t.n_[2] << 40),
                (t.n_[2] >> 24) | (t.n_[3] << 28), (t.n_[3] >> 36) | (t.n_[4] << 16));
  }
  bool IsZero() const {
    Fp t = Normalized();
    return (t.n_[0] | t.n_[1] | t.n_[2] | t.n_[3] | t.n_[4]) == 0;
  }
  bool IsOdd() const { return (Normalized().n_[0] & 1) != 0; }

  bool operator==(const Fp& o) const {
    Fp a = Normalized();
    Fp b = o.Normalized();
    return ((a.n_[0] ^ b.n_[0]) | (a.n_[1] ^ b.n_[1]) | (a.n_[2] ^ b.n_[2]) |
            (a.n_[3] ^ b.n_[3]) | (a.n_[4] ^ b.n_[4])) == 0;
  }
  bool operator!=(const Fp& o) const { return !(*this == o); }

  Fp operator+(const Fp& o) const {
    Fp r;
    for (int i = 0; i < 5; i++) {
      r.n_[i] = n_[i] + o.n_[i];
    }
    return r.Carried();
  }
  // a - b = a + (4p - b): every limb of 4p exceeds the matching limb bound
  // of a weakly reduced b, so no limb underflows.
  Fp operator-(const Fp& o) const {
    Fp r;
    for (int i = 0; i < 5; i++) {
      r.n_[i] = n_[i] + kFourP[i] - o.n_[i];
    }
    return r.Carried();
  }
  Fp Neg() const {
    Fp r;
    for (int i = 0; i < 5; i++) {
      r.n_[i] = kFourP[i] - n_[i];
    }
    return r.Carried();
  }

  // Column-wise schoolbook product: column k (the sum of a_i b_j, i + j = k)
  // sits at 2^(52 k), and column k + 5 folds into column k times
  // kR = 2^260 mod p. Column 8 and then column 7 are folded 64 bits at a
  // time (low word by kR, the rest by kR << 12 one column up) so every
  // 128-bit accumulator stays below 2^108 for weakly reduced inputs.
  Fp operator*(const Fp& o) const {
    const uint64_t* a = n_;
    const uint64_t* b = o.n_;
    uint128 c = 0, d = 0;
    uint64_t t3 = 0, t4 = 0, tx = 0, u0 = 0;
    Fp r;

    d = Mul(a[0], b[3]) + Mul(a[1], b[2]) + Mul(a[2], b[1]) + Mul(a[3], b[0]);
    c = Mul(a[4], b[4]);
    d += Mul(static_cast<uint64_t>(c), kR);
    c >>= 64;
    t3 = static_cast<uint64_t>(d) & kMask;
    d >>= 52;

    d += Mul(a[0], b[4]) + Mul(a[1], b[3]) + Mul(a[2], b[2]) + Mul(a[3], b[1]) + Mul(a[4], b[0]);
    d += Mul(static_cast<uint64_t>(c), kR << 12);
    t4 = static_cast<uint64_t>(d) & kMask;
    d >>= 52;
    // Bits 48-51 of limb 4 sit at 2^256; they join column 5's digit (at
    // 2^260) and fold into column 0 by 2^256 mod p = kR >> 4.
    tx = t4 >> 48;
    t4 &= kMask >> 4;

    c = Mul(a[0], b[0]);
    d += Mul(a[1], b[4]) + Mul(a[2], b[3]) + Mul(a[3], b[2]) + Mul(a[4], b[1]);
    u0 = ((static_cast<uint64_t>(d) & kMask) << 4) | tx;
    d >>= 52;
    c += Mul(u0, kR >> 4);
    r.n_[0] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;

    c += Mul(a[0], b[1]) + Mul(a[1], b[0]);
    d += Mul(a[2], b[4]) + Mul(a[3], b[3]) + Mul(a[4], b[2]);
    c += Mul(static_cast<uint64_t>(d) & kMask, kR);
    d >>= 52;
    r.n_[1] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;

    c += Mul(a[0], b[2]) + Mul(a[1], b[1]) + Mul(a[2], b[0]);
    d += Mul(a[3], b[4]) + Mul(a[4], b[3]);
    c += Mul(static_cast<uint64_t>(d), kR);
    d >>= 64;
    r.n_[2] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;

    c += Mul(static_cast<uint64_t>(d), kR << 12) + t3;
    r.n_[3] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;
    r.n_[4] = static_cast<uint64_t>(c) + t4;
    return r;
  }

  // The same schedule as operator* with the 25 products of a square reduced
  // to 15 (each cross term a_i a_j, i != j, taken once and doubled).
  Fp Square() const {
    const uint64_t* a = n_;
    uint128 c = 0, d = 0;
    uint64_t t3 = 0, t4 = 0, tx = 0, u0 = 0;
    Fp r;

    d = Mul(a[0] * 2, a[3]) + Mul(a[1] * 2, a[2]);
    c = Mul(a[4], a[4]);
    d += Mul(static_cast<uint64_t>(c), kR);
    c >>= 64;
    t3 = static_cast<uint64_t>(d) & kMask;
    d >>= 52;

    d += Mul(a[0] * 2, a[4]) + Mul(a[1] * 2, a[3]) + Mul(a[2], a[2]);
    d += Mul(static_cast<uint64_t>(c), kR << 12);
    t4 = static_cast<uint64_t>(d) & kMask;
    d >>= 52;
    tx = t4 >> 48;
    t4 &= kMask >> 4;

    c = Mul(a[0], a[0]);
    d += Mul(a[1] * 2, a[4]) + Mul(a[2] * 2, a[3]);
    u0 = ((static_cast<uint64_t>(d) & kMask) << 4) | tx;
    d >>= 52;
    c += Mul(u0, kR >> 4);
    r.n_[0] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;

    c += Mul(a[0] * 2, a[1]);
    d += Mul(a[2] * 2, a[4]) + Mul(a[3], a[3]);
    c += Mul(static_cast<uint64_t>(d) & kMask, kR);
    d >>= 52;
    r.n_[1] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;

    c += Mul(a[0] * 2, a[2]) + Mul(a[1], a[1]);
    d += Mul(a[3] * 2, a[4]);
    c += Mul(static_cast<uint64_t>(d), kR);
    d >>= 64;
    r.n_[2] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;

    c += Mul(static_cast<uint64_t>(d), kR << 12) + t3;
    r.n_[3] = static_cast<uint64_t>(c) & kMask;
    c >>= 52;
    r.n_[4] = static_cast<uint64_t>(c) + t4;
    return r;
  }

  // Multiplicative inverse by safegcd divsteps (Bernstein-Yang), in
  // variable time. Requires a != 0.
  Fp Inv() const;
  // Inverts `count` values in place with one shared Inv() (Montgomery's
  // trick): 3 multiplications per value instead of one inversion each.
  // Every value must be nonzero.
  static void BatchInvert(Fp* values, size_t count);
  // Square root via a^((p+1)/4) (valid since p ≡ 3 mod 4). Returns false if
  // no square root exists.
  bool Sqrt(Fp* out) const;

 private:
  using uint128 = unsigned __int128;

  static constexpr uint64_t kMask = (uint64_t{1} << 52) - 1;
  // 2^260 mod p; 2^256 mod p is kR >> 4 = 2^32 + 977.
  static constexpr uint64_t kR = 0x1000003D10ULL;
  // 4p in limb form.
  static constexpr uint64_t kFourP[5] = {0xFFFFEFFFFFC2FULL * 4, kMask * 4, kMask * 4, kMask * 4,
                                         (kMask >> 4) * 4};

  static uint128 Mul(uint64_t x, uint64_t y) { return static_cast<uint128>(x) * y; }

  // One carry pass over limbs below 2^62: the bits of limb 4 above 2^256
  // fold into limb 0 by 2^256 mod p, and the carries ripple up, leaving the
  // value weakly reduced.
  Fp Carried() const {
    Fp r;
    uint64_t t4 = n_[4];
    uint64_t x = t4 >> 48;
    t4 &= kMask >> 4;
    uint64_t t0 = n_[0] + x * (kR >> 4);
    uint64_t t1 = n_[1] + (t0 >> 52);
    uint64_t t2 = n_[2] + (t1 >> 52);
    uint64_t t3 = n_[3] + (t2 >> 52);
    r.n_[0] = t0 & kMask;
    r.n_[1] = t1 & kMask;
    r.n_[2] = t2 & kMask;
    r.n_[3] = t3 & kMask;
    r.n_[4] = t4 + (t3 >> 52);
    return r;
  }

  // The representative in [0, p): a carry pass leaves the value below
  // 2^256 + 2^34 < 2p, so one conditional subtraction of p (adding
  // 2^256 - p and dropping bit 256) finishes it.
  Fp Normalized() const {
    Fp r = Carried();
    uint64_t* t = r.n_;
    uint64_t all_ones = t[1] & t[2] & t[3];
    uint64_t over = (t[4] >> 48) | static_cast<uint64_t>(t[4] == (kMask >> 4) && all_ones == kMask &&
                                                          t[0] >= 0xFFFFEFFFFFC2FULL);
    t[0] += over * (kR >> 4);
    t[1] += t[0] >> 52;
    t[0] &= kMask;
    t[2] += t[1] >> 52;
    t[1] &= kMask;
    t[3] += t[2] >> 52;
    t[2] &= kMask;
    t[4] += t[3] >> 52;
    t[3] &= kMask;
    t[4] &= kMask >> 4;
    return r;
  }

  uint64_t n_[5] = {0, 0, 0, 0, 0};
};

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_FP_H_
