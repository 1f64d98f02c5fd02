// secp256k1 elliptic-curve group: y^2 = x^3 + 7 over GF(p).
//
// Points are held in Jacobian projective coordinates (X, Y, Z) with the
// point at infinity represented by Z = 0. The group has prime order n, so
// every non-identity point generates the full group — which is exactly the
// structure the exponential-ElGamal scheme in elgamal.h needs.
#ifndef SRC_CRYPTO_EC_H_
#define SRC_CRYPTO_EC_H_

#include <array>
#include <optional>

#include "src/crypto/fp.h"
#include "src/crypto/u256.h"

namespace dstress::crypto {

// Order of the secp256k1 group (prime).
const U256& CurveOrder();

// A point in affine coordinates with an explicit infinity flag — the element
// format of the batch-affine engine (fixed_base.h), whose shared-inversion
// addition needs x and y directly rather than Jacobian coordinates. The
// default-constructed value is the point at infinity.
struct AffinePoint {
  Fp x, y;
  bool infinity = true;
};

class EcPoint {
 public:
  // Point at infinity.
  EcPoint() : x_(Fp::FromUint64(1)), y_(Fp::FromUint64(1)), z_(Fp::FromUint64(0)) {}

  static EcPoint Infinity() { return EcPoint(); }
  // The standard generator G.
  static const EcPoint& Generator();
  // Constructs from affine coordinates; the caller asserts (x, y) is on the
  // curve (checked in debug builds).
  static EcPoint FromAffine(const Fp& x, const Fp& y);
  // Lifts a batch-engine affine point back into the Jacobian representation
  // (no field work; trusts the input is on the curve, like FromAffine).
  static EcPoint FromAffinePoint(const AffinePoint& p);

  bool IsInfinity() const { return z_.IsZero(); }

  EcPoint Double() const;
  EcPoint Add(const EcPoint& other) const;
  EcPoint Neg() const;
  // Scalar multiplication by k (interpreted mod n): the GLV split, then
  // both halves' width-5 wNAF digits (ComputeWnaf) against odd-multiple
  // tables of P and phi(P).
  EcPoint Mul(const U256& k) const;

  // Converts to affine (x, y). Must not be infinity.
  void ToAffine(Fp* x, Fp* y) const;

  // Constant-size compressed encoding: 0x02/0x03 || x (33 bytes); infinity
  // encodes as 33 zero bytes. This is the wire format of every ElGamal
  // component, and the 33-byte size is what the traffic accounting charges.
  static constexpr size_t kCompressedSize = 33;
  std::array<uint8_t, kCompressedSize> Compress() const;
  static std::optional<EcPoint> Decompress(const uint8_t* bytes33);

  // Compresses `count` points into out[count*33] with one shared field
  // inversion: ToAffineBatch, then CompressAffine.
  static void CompressBatch(const EcPoint* points, size_t count, uint8_t* out);
  // Compresses `count` affine points (batch-engine results) into
  // out[count*33] in the same format; affine input needs no inversion.
  static void CompressAffine(const AffinePoint* points, size_t count, uint8_t* out);

  // Converts `count` points to affine with one shared field inversion —
  // feeds the batch-affine engine (table builds, burst decryption).
  static void ToAffineBatch(const EcPoint* points, size_t count, AffinePoint* out);

  // Decompresses `count` packed 33-byte encodings (the inverse of
  // CompressBatch's layout) into batch-engine affine form, by one Decompress
  // per point, each paying its own square root. Returns false if any
  // encoding is invalid, in which case `out` is unspecified.
  static bool DecompressBatch(const uint8_t* in, size_t count, AffinePoint* out);

  // Equality in the group (compares affine forms; handles infinity).
  bool operator==(const EcPoint& other) const;
  bool operator!=(const EcPoint& other) const { return !(*this == other); }

 private:
  EcPoint(const Fp& x, const Fp& y, const Fp& z) : x_(x), y_(y), z_(z) {}

  Fp x_, y_, z_;
};

// k*G using a precomputed table for the fixed generator (much faster than
// EcPoint::Generator().Mul(k); encryption does two of these per ciphertext).
EcPoint MulBase(const U256& k);

// --- GLV decomposition (exposed for the fixed-base tables) -------------------
// secp256k1 admits the endomorphism phi(x, y) = (beta*x, y) = lambda*(x, y).
// SplitScalarGlv writes e ≡ sign1*k1 + lambda*sign2*k2 (mod n) with
// k1, k2 < 2^129; e must already be reduced mod n. The split is exact
// integer arithmetic on the lattice basis, with no reduction mod n.
// EcPoint::Mul uses it internally; fixed_base.h uses it to halve the window
// count of its tables (one table for P, one derived table for phi(P)).
void SplitScalarGlv(const U256& e, U256* k1, int* sign1, U256* k2, int* sign2);
const Fp& EndomorphismBeta();

// Width-5 wNAF digit expansion of e: e = sum digits[i] * 2^i with every
// nonzero digit odd, in [-15, 15], and any two nonzero digits at least 5
// positions apart. `digits` must be zeroed; only the nonzero digits are
// written. Returns the index of the top nonzero digit, or -1 for e = 0.
// EcPoint::Mul walks the two GLV halves' expansions against tables of the
// odd multiples 1*P ... 15*P, and so does fixed_base.h's lockstep
// MulVariableBases.
constexpr int kWnafDigits = 260;
int ComputeWnaf(const U256& e, int8_t digits[kWnafDigits]);

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_EC_H_
