#include "src/crypto/fp.h"

#include <vector>

#include "src/common/check.h"

namespace dstress::crypto {

namespace {

const U256 kP(0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
              0xFFFFFFFFFFFFFFFFULL);

// Squares `x` n times.
inline Fp SqN(Fp x, int n) {
  for (int i = 0; i < n; i++) {
    x = x.Square();
  }
  return x;
}

// Shared prefix of the secp256k1 inversion and square-root addition chains:
// x_n = a^(2^n - 1) for the block lengths both exponents decompose into.
// p = 2^256 - 2^32 - 977 is all-ones in its top 223 bits, so a^(p-2) and
// a^((p+1)/4) both start from x223 and differ only in a short tail; the
// chain costs ~255 squarings + ~16 multiplications, vs ~250 squarings +
// ~240 multiplications for generic square-and-multiply on these nearly
// all-ones exponents.
struct ChainParts {
  Fp x2, x22, x223;
};

inline ChainParts ChainCore(const Fp& a) {
  Fp x2 = a.Square() * a;
  Fp x3 = x2.Square() * a;
  Fp x6 = SqN(x3, 3) * x3;
  Fp x9 = SqN(x6, 3) * x3;
  Fp x11 = SqN(x9, 2) * x2;
  Fp x22 = SqN(x11, 11) * x11;
  Fp x44 = SqN(x22, 22) * x22;
  Fp x88 = SqN(x44, 44) * x44;
  Fp x176 = SqN(x88, 88) * x88;
  Fp x220 = SqN(x176, 44) * x44;
  Fp x222 = SqN(x220, 2) * x2;
  Fp x223 = x222.Square() * a;
  return {x2, x22, x223};
}

}  // namespace

const U256& Fp::P() { return kP; }

Fp Fp::Pow(const U256& e) const {
  Fp result = Fp::FromUint64(1);
  Fp base = *this;
  int top = e.BitLength();
  for (int i = 0; i <= top; i++) {
    if (e.Bit(i)) {
      result = result * base;
    }
    base = base.Square();
  }
  return result;
}

Fp Fp::Inv() const {
  DSTRESS_CHECK(!IsZero());
  // a^(p-2) assembled from the shared chain:
  // p-2 = (2^223-1)·2^33 + (2^22-1)·2^11 + ...; the tail below reproduces
  // the low 33 bits 0xFFFFFEFFFFFC2D exactly.
  ChainParts c = ChainCore(*this);
  Fp t = SqN(c.x223, 23) * c.x22;
  t = SqN(t, 5) * *this;
  t = SqN(t, 3) * c.x2;
  t = SqN(t, 2) * *this;
  return t;
}

void Fp::BatchInvert(Fp* values, size_t count) {
  if (count == 0) {
    return;
  }
  // prefix[i] = v_0 * ... * v_{i-1}; one Inv of the total product, then a
  // backward walk peels off individual inverses. Scratch persists across
  // calls: this is on the batch-affine hot path.
  static thread_local std::vector<Fp> prefix;
  prefix.resize(count);
  Fp running = Fp::FromUint64(1);
  for (size_t i = 0; i < count; i++) {
    prefix[i] = running;
    running = running * values[i];
  }
  Fp inv_all = running.Inv();
  for (size_t i = count; i-- > 0;) {
    Fp v = values[i];
    values[i] = inv_all * prefix[i];
    inv_all = inv_all * v;
  }
}

bool Fp::Sqrt(Fp* out) const {
  // p ≡ 3 (mod 4): candidate = a^((p+1)/4), with (p+1)/4 = 2^254 - 2^30 - 244
  // assembled from the same chain as Inv().
  ChainParts c = ChainCore(*this);
  Fp cand = SqN(c.x223, 23) * c.x22;
  cand = SqN(cand, 6) * c.x2;
  cand = SqN(cand, 2);
  if (cand.Square() != *this) {
    return false;
  }
  *out = cand;
  return true;
}

}  // namespace dstress::crypto
