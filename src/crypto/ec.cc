#include "src/crypto/ec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/check.h"

namespace dstress::crypto {

namespace {

const U256 kN(0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL, 0xFFFFFFFFFFFFFFFEULL,
              0xFFFFFFFFFFFFFFFFULL);

const char kGxHex[] = "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798";
const char kGyHex[] = "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8";

Fp CurveB() { return Fp::FromUint64(7); }

// --- GLV endomorphism (secp256k1-specific speedup) ---------------------------
// The curve admits an efficient endomorphism phi(x, y) = (beta*x, y) with
// phi(P) = lambda*P. Splitting k = k1 + lambda*k2 with |k1|, |k2| ~ 2^128
// halves the doubling chain of a variable-base multiplication. Constants
// and the split follow the standard lattice decomposition (GLV 2001):
// (a1, b1), (a2, b2) is the reduced basis of {(x, y) : x + y*lambda ≡ 0
// (mod n)}, with b1 < 0 and b2 = a1, and g1, g2 = round(2^384 * b2 / n),
// round(2^384 * -b1 / n) are the rounded multipliers.
const char kBetaHex[] = "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee";
const U256 kA1 = U256::FromHex("3086d221a7d46bcde86c90e49284eb15");  // = b2
const U256 kMinusB1 = U256::FromHex("e4437ed6010e88286f547fa90abfe4c3");
const U256 kA2 = U256::FromHex("114ca50f7a8e2f3f657c1108d9d44cfd8");
const U256 kG1 =
    U256::FromHex("3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
const U256 kG2 =
    U256::FromHex("e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");

// High 128 bits of k*g, rounded: round(k*g / 2^384).
U256 MulShift384(const U256& k, const U256& g) {
  U512 prod = MulFull(k, g);
  U256 out(prod.w[6], prod.w[7], 0, 0);
  if (prod.w[5] >> 63) {
    AddWithCarry(out, U256::One(), &out);
  }
  return out;
}

// a*b mod 2^256.
U256 MulLow(const U256& a, const U256& b) {
  U512 prod = MulFull(a, b);
  return U256(prod.w[0], prod.w[1], prod.w[2], prod.w[3]);
}

// Splits a two's-complement value into magnitude and sign.
void ToSignMagnitude(const U256& v, U256* magnitude, int* sign) {
  *sign = v.Bit(255) ? -1 : 1;
  *magnitude = v;
  if (*sign < 0) {
    SubWithBorrow(U256::Zero(), v, magnitude);
  }
}

// Bits [bit, bit + count) of e as an integer, count <= 5; bits past 255
// read as zero.
int BitsAt(const U256& e, int bit, int count) {
  const int word = bit >> 6;
  const int shift = bit & 63;
  if (word >= 4) {
    return 0;
  }
  uint64_t v = e.w[word] >> shift;
  if (shift + count > 64 && word < 3) {
    v |= e.w[word + 1] << (64 - shift);
  }
  return static_cast<int>(v & ((1u << count) - 1));
}

// Index of the first bit of e at or after `bit` that differs from `carry`
// (bits past 255 read as zero), or 257 when there is none.
int NextBitNot(const U256& e, int bit, int carry) {
  const uint64_t flip = carry ? ~0ULL : 0;
  for (; bit < 256; bit = (bit | 63) + 1) {
    const uint64_t v = (e.w[bit >> 6] ^ flip) >> (bit & 63);
    if (v != 0) {
      return bit + __builtin_ctzll(v);
    }
  }
  return carry ? bit : 257;
}

// Writes the compressed encoding of the affine point (x, y).
void EncodeAffine(const Fp& x, const Fp& y, uint8_t* out33) {
  out33[0] = y.IsOdd() ? 0x03 : 0x02;
  x.raw().ToBytesBe(out33 + 1);
}

}  // namespace

const U256& CurveOrder() { return kN; }

const EcPoint& EcPoint::Generator() {
  static const EcPoint g = EcPoint::FromAffine(Fp::FromHex(kGxHex), Fp::FromHex(kGyHex));
  return g;
}

EcPoint EcPoint::FromAffine(const Fp& x, const Fp& y) {
  DSTRESS_DCHECK(y.Square() == x.Square() * x + CurveB());
  return EcPoint(x, y, Fp::FromUint64(1));
}

EcPoint EcPoint::FromAffinePoint(const AffinePoint& p) {
  if (p.infinity) {
    return Infinity();
  }
  DSTRESS_DCHECK(p.y.Square() == p.x.Square() * p.x + CurveB());
  return EcPoint(p.x, p.y, Fp::FromUint64(1));
}

EcPoint EcPoint::Neg() const {
  if (IsInfinity()) {
    return *this;
  }
  return EcPoint(x_, y_.Neg(), z_);
}

EcPoint EcPoint::Double() const {
  if (IsInfinity() || y_.IsZero()) {
    return Infinity();
  }
  // Standard Jacobian doubling for a = 0 curves (dbl-2009-l).
  Fp a = x_.Square();
  Fp b = y_.Square();
  Fp c = b.Square();
  Fp t = (x_ + b).Square() - a - c;
  Fp d = t + t;  // 2*((X+B)^2 - A - C)
  Fp e = a + a + a;
  Fp f = e.Square();
  Fp x3 = f - (d + d);
  Fp c8 = c + c;
  c8 = c8 + c8;
  c8 = c8 + c8;
  Fp y3 = e * (d - x3) - c8;
  Fp z3 = (y_ + y_) * z_;
  return EcPoint(x3, y3, z3);
}

EcPoint EcPoint::Add(const EcPoint& other) const {
  if (IsInfinity()) {
    return other;
  }
  if (other.IsInfinity()) {
    return *this;
  }
  // General Jacobian addition (add-2007-bl structure, unoptimized).
  Fp z1z1 = z_.Square();
  Fp z2z2 = other.z_.Square();
  Fp u1 = x_ * z2z2;
  Fp u2 = other.x_ * z1z1;
  Fp s1 = y_ * z2z2 * other.z_;
  Fp s2 = other.y_ * z1z1 * z_;
  if (u1 == u2) {
    if (s1 != s2) {
      return Infinity();
    }
    return Double();
  }
  Fp h = u2 - u1;
  Fp r = s2 - s1;
  Fp h2 = h.Square();
  Fp h3 = h2 * h;
  Fp u1h2 = u1 * h2;
  Fp x3 = r.Square() - h3 - (u1h2 + u1h2);
  Fp y3 = r * (u1h2 - x3) - s1 * h3;
  Fp z3 = z_ * other.z_ * h;
  return EcPoint(x3, y3, z3);
}

EcPoint EcPoint::Mul(const U256& k) const {
  // Reduce the scalar mod n so callers can pass raw 256-bit values.
  U256 e = k;
  while (Cmp(e, kN) >= 0) {
    SubWithBorrow(e, kN, &e);
  }
  if (e.IsZero() || IsInfinity()) {
    return Infinity();
  }
  // GLV split: e = s1*k1 + lambda*s2*k2 with short k1, k2, then a shared
  // ~130-step doubling chain with interleaved width-5 wNAF additions from
  // two tables (P and phi(P)).
  U256 k1, k2;
  int sign1 = 0, sign2 = 0;
  SplitScalarGlv(e, &k1, &sign1, &k2, &sign2);

  int8_t digits1[kWnafDigits] = {0};
  int8_t digits2[kWnafDigits] = {0};
  int top1 = ComputeWnaf(k1, digits1);
  int top2 = ComputeWnaf(k2, digits2);

  EcPoint base1 = (sign1 > 0) ? *this : Neg();
  // phi(P): scale the Jacobian X coordinate by beta (affine x -> beta*x).
  EcPoint base2(x_ * EndomorphismBeta(), y_, z_);
  if (sign2 < 0) {
    base2 = base2.Neg();
  }

  // Odd-multiple tables: table[t] = (2t+1) * base.
  EcPoint table1[8], table2[8];
  table1[0] = base1;
  table2[0] = base2;
  EcPoint twice1 = base1.Double();
  EcPoint twice2 = base2.Double();
  for (int t = 1; t < 8; t++) {
    table1[t] = table1[t - 1].Add(twice1);
    table2[t] = table2[t - 1].Add(twice2);
  }

  auto add_digit = [](EcPoint acc, int d, const EcPoint table[8]) {
    if (d > 0) {
      return acc.Add(table[(d - 1) / 2]);
    }
    if (d < 0) {
      return acc.Add(table[(-d - 1) / 2].Neg());
    }
    return acc;
  };

  EcPoint acc = Infinity();
  int top = std::max(top1, top2);
  for (int i = top; i >= 0; i--) {
    acc = acc.Double();
    if (i <= top1) {
      acc = add_digit(acc, digits1[i], table1);
    }
    if (i <= top2) {
      acc = add_digit(acc, digits2[i], table2);
    }
  }
  return acc;
}

void EcPoint::ToAffine(Fp* x, Fp* y) const {
  DSTRESS_CHECK(!IsInfinity());
  Fp zinv = z_.Inv();
  Fp zinv2 = zinv.Square();
  *x = x_ * zinv2;
  *y = y_ * zinv2 * zinv;
}

bool EcPoint::operator==(const EcPoint& other) const {
  if (IsInfinity() || other.IsInfinity()) {
    return IsInfinity() == other.IsInfinity();
  }
  // Cross-multiplied comparison avoids field inversions.
  Fp z1z1 = z_.Square();
  Fp z2z2 = other.z_.Square();
  if (x_ * z2z2 != other.x_ * z1z1) {
    return false;
  }
  return y_ * z2z2 * other.z_ == other.y_ * z1z1 * z_;
}

std::array<uint8_t, EcPoint::kCompressedSize> EcPoint::Compress() const {
  std::array<uint8_t, kCompressedSize> out{};
  if (IsInfinity()) {
    return out;  // all-zero encoding
  }
  Fp ax = Fp::FromUint64(0), ay = Fp::FromUint64(0);
  ToAffine(&ax, &ay);
  EncodeAffine(ax, ay, out.data());
  return out;
}

std::optional<EcPoint> EcPoint::Decompress(const uint8_t* bytes33) {
  if (bytes33[0] == 0) {
    for (int i = 1; i < 33; i++) {
      if (bytes33[i] != 0) {
        return std::nullopt;
      }
    }
    return Infinity();
  }
  if (bytes33[0] != 0x02 && bytes33[0] != 0x03) {
    return std::nullopt;
  }
  U256 raw_x = U256::FromBytesBe(bytes33 + 1);
  if (Cmp(raw_x, Fp::P()) >= 0) {
    return std::nullopt;
  }
  Fp x = Fp::FromU256(raw_x);
  Fp rhs = x.Square() * x + CurveB();
  Fp y = Fp::FromUint64(0);
  if (!rhs.Sqrt(&y)) {
    return std::nullopt;
  }
  bool want_odd = bytes33[0] == 0x03;
  if (y.IsOdd() != want_odd) {
    y = y.Neg();
  }
  return FromAffine(x, y);
}

EcPoint MulBase(const U256& k) {
  // table[w][d] = d * 256^w * G for w in [0, 32), d in [0, 256). ~0.8 MB,
  // built once; every fixed-base multiplication is then at most 32 adds.
  static const std::vector<std::vector<EcPoint>>* kTable = [] {
    auto* t = new std::vector<std::vector<EcPoint>>(32, std::vector<EcPoint>(256));
    EcPoint window_base = EcPoint::Generator();
    for (int w = 0; w < 32; w++) {
      (*t)[w][0] = EcPoint::Infinity();
      for (int d = 1; d < 256; d++) {
        (*t)[w][d] = (*t)[w][d - 1].Add(window_base);
      }
      window_base = (*t)[w][255].Add(window_base);  // 256^(w+1) * G
    }
    return t;
  }();

  U256 e = k;
  while (Cmp(e, CurveOrder()) >= 0) {
    SubWithBorrow(e, CurveOrder(), &e);
  }
  EcPoint acc = EcPoint::Infinity();
  for (int byte = 0; byte < 32; byte++) {
    unsigned d = static_cast<unsigned>(e.w[byte / 8] >> (8 * (byte % 8))) & 0xff;
    if (d != 0) {
      acc = acc.Add((*kTable)[byte][d]);
    }
  }
  return acc;
}

void EcPoint::CompressBatch(const EcPoint* points, size_t count, uint8_t* out) {
  std::vector<AffinePoint> affine(count);
  ToAffineBatch(points, count, affine.data());
  CompressAffine(affine.data(), count, out);
}

void EcPoint::CompressAffine(const AffinePoint* points, size_t count, uint8_t* out) {
  for (size_t i = 0; i < count; i++) {
    uint8_t* slot = out + i * kCompressedSize;
    if (points[i].infinity) {
      std::memset(slot, 0, kCompressedSize);
    } else {
      EncodeAffine(points[i].x, points[i].y, slot);
    }
  }
}

void EcPoint::ToAffineBatch(const EcPoint* points, size_t count, AffinePoint* out) {
  // Montgomery batch inversion over the non-infinity z coordinates.
  std::vector<Fp> prefix(count);
  Fp running = Fp::FromUint64(1);
  for (size_t i = 0; i < count; i++) {
    prefix[i] = running;
    if (!points[i].IsInfinity()) {
      running = running * points[i].z_;
    }
  }
  Fp inv_all = running.Inv();
  // Walk backwards: zinv_i = inv(prod_{j<=i}) * prefix_i.
  for (size_t idx = count; idx-- > 0;) {
    const EcPoint& p = points[idx];
    if (p.IsInfinity()) {
      out[idx] = AffinePoint{};
      continue;
    }
    Fp zinv = inv_all * prefix[idx];
    inv_all = inv_all * p.z_;
    Fp zinv2 = zinv.Square();
    out[idx].x = p.x_ * zinv2;
    out[idx].y = p.y_ * zinv2 * zinv;
    out[idx].infinity = false;
  }
}

bool EcPoint::DecompressBatch(const uint8_t* in, size_t count, AffinePoint* out) {
  for (size_t i = 0; i < count; i++) {
    auto p = Decompress(in + i * kCompressedSize);
    if (!p.has_value()) {
      return false;
    }
    if (p->IsInfinity()) {
      out[i] = AffinePoint{};
    } else {
      // Decompress() constructs via FromAffine, so z == 1 and the Jacobian
      // coordinates are already the affine ones.
      out[i].x = p->x_;
      out[i].y = p->y_;
      out[i].infinity = false;
    }
  }
  return true;
}

void SplitScalarGlv(const U256& e, U256* k1, int* sign1, U256* k2, int* sign2) {
  // With c1 ~ e*b2/n and c2 ~ e*(-b1)/n, the lattice point c1*(a1, b1) +
  // c2*(a2, b2) is close to (e, 0), so (k1, k2) = (e, 0) minus that point
  // satisfies k1 + lambda*k2 ≡ e (mod n) with |k1|, |k2| < 2^129. The
  // products overflow 256 bits but the differences do not, so they are
  // exact in two's complement mod 2^256 and bit 255 is the sign: no
  // reduction mod n is needed.
  U256 c1 = MulShift384(e, kG1);
  U256 c2 = MulShift384(e, kG2);
  U256 r1, r2;
  SubWithBorrow(e, MulLow(c1, kA1), &r1);
  SubWithBorrow(r1, MulLow(c2, kA2), &r1);
  SubWithBorrow(MulLow(c1, kMinusB1), MulLow(c2, kA1), &r2);
  ToSignMagnitude(r1, k1, sign1);
  ToSignMagnitude(r2, k2, sign2);
}

// A word-level scan with a carry (the window method of libsecp256k1's
// secp256k1_ecmult_wnaf): runs of bits equal to the carry are skipped with
// one count-trailing-zeros per word, and each digit takes the next 5 bits
// plus the carry.
int ComputeWnaf(const U256& e, int8_t digits[kWnafDigits]) {
  constexpr int kWidth = 5;
  int top = -1;
  int carry = 0;
  for (int bit = NextBitNot(e, 0, 0); bit <= 256; bit = NextBitNot(e, bit, carry)) {
    int d = BitsAt(e, bit, kWidth) + carry;  // odd: bit `bit` differs from the carry
    carry = (d >> (kWidth - 1)) & 1;
    d -= carry << kWidth;
    digits[bit] = static_cast<int8_t>(d);
    top = bit;
    bit += kWidth;
  }
  return top;
}

const Fp& EndomorphismBeta() {
  static const Fp beta = Fp::FromHex(kBetaHex);
  return beta;
}

}  // namespace dstress::crypto
