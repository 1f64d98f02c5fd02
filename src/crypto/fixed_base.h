// Fixed-base scalar multiplication for arbitrary base points, plus the
// lockstep batch-affine engine behind the transfer-phase crypto path
// (docs/transfer-crypto.md).
//
// A FixedBaseTable generalizes the MulBase generator comb to any base point
// P: it precomputes signed-window multiples of P in *affine* coordinates
// (normalized with Montgomery-trick batch inversion at build time) so each
// evaluation window costs one mixed addition instead of a full Jacobian one.
// The scalar is GLV-split into two ~128-bit halves, one walked against the
// table for P and one against the derived table for phi(P) = (beta*x, y) —
// halving the window count for the same digit density, and making the
// endomorphism table almost free to build (one field multiplication per
// entry).
//
// Three shapes use this engine. A FixedBaseTable serves one base multiplied
// by many scalars: the shared ephemeral c1 of a column burst against every
// (member, bit) secret, and the base-OT receiver's A against every b_i.
// MulBatch advances all of those lanes in lockstep, so each window level
// pays a single shared field inversion. A FixedBaseTableSet serves a fixed
// set of keys multiplied by one scalar, over and over: a certificate's keys
// against every bundle's ephemeral, so the set's tables are built once and
// reused on every transfer. MulVariableBases serves many bases multiplied
// by one scalar once, with no table kept: the base-OT sender's a against
// every reply point B_i, and the trusted setup's neighbor key against every
// member key of a block certificate (MakeBlockCertificate). Either way a
// scalar is recoded once and the recoding is shared by every lane that
// uses it.
#ifndef SRC_CRYPTO_FIXED_BASE_H_
#define SRC_CRYPTO_FIXED_BASE_H_

#include <cstdint>
#include <vector>

#include "src/crypto/ec.h"

namespace dstress::crypto {

class FixedBaseTable {
 public:
  static constexpr int kWindowBits = 4;
  // ceil(129 / 4) = 33 windows cover a GLV half-scalar (|k| < 2^129) plus
  // the signed-digit carry out of window 31.
  static constexpr int kHalfWindows = 33;
  static constexpr int kEntriesPerWindow = 8;  // digits d in [1, 8]

  // GLV-split signed-window digits of one scalar: digit1 walks the base
  // table, digit2 the endomorphism table, every digit in [-8, 8]. One
  // recoding serves every lane that multiplies by the same scalar.
  struct Recoding {
    int8_t digit1[kHalfWindows];
    int8_t digit2[kHalfWindows];
  };
  // k is interpreted mod n, like EcPoint::Mul.
  static Recoding Recode(const U256& k);

  explicit FixedBaseTable(const EcPoint& base);

  // Entry(j, d) = d * 16^j * base, EndoEntry(j, d) = d * 16^j * phi(base),
  // both affine; d in [1, kEntriesPerWindow].
  const AffinePoint& Entry(int window, int d) const {
    return entries_[window * kEntriesPerWindow + (d - 1)];
  }
  const AffinePoint& EndoEntry(int window, int d) const {
    return endo_entries_[window * kEntriesPerWindow + (d - 1)];
  }

 private:
  std::vector<AffinePoint> entries_;       // [kHalfWindows * kEntriesPerWindow]
  std::vector<AffinePoint> endo_entries_;  // phi(base) mirror
};

// --- batch-affine primitives -------------------------------------------------

// acc[i] += add[i] for every lane, sharing one field inversion across the
// batch (Montgomery's trick). Every special case is handled exactly for
// points on the curve: infinities on either side, doubling (P + P), and
// cancellation (P + (-P) = infinity).
void BatchAddAssign(AffinePoint* acc, const AffinePoint* add, size_t count);

// acc[indices[t]] += add[t]. Indices must be distinct within one call (each
// lane's accumulator is read once, before any write).
void BatchAddSelected(AffinePoint* acc, const size_t* indices, const AffinePoint* add,
                      size_t count);

// out[i] = k(recodings[i]) * base(table) for every lane, in lockstep: per
// window level, one shared-inversion batch addition across all lanes with a
// nonzero digit. Identical in value to base.Mul(k) for every k (the
// randomized corpus test pins this). Results are affine, ready for direct
// compressed serialization.
void MulBatch(const FixedBaseTable& table, const FixedBaseTable::Recoding* recodings,
              size_t count, AffinePoint* out);

// out[i] = k * bases[i] for every lane (k interpreted mod n, like
// EcPoint::Mul), in lockstep over k's single recoding: EcPoint::Mul's GLV
// split and width-5 wNAF digits, shared by every lane. Each lane gets a
// per-call table of the odd multiples 1*B_i ... 15*B_i (one batch doubling
// and seven batch additions across all lanes); then, from the top digit
// down, every bit is one BatchAddAssign doubling of all lanes and every
// nonzero digit of either half one BatchAddAssign, so each step pays one
// shared field inversion. Infinity, doubling and cancellation are exact in
// every lane, and the results are affine, ready for CompressAffine.
void MulVariableBases(const AffinePoint* bases, size_t count, const U256& k, AffinePoint* out);

// The other shape: a fixed SET of base points (one per certificate
// [member][bit] key) all multiplied by the SAME scalar (the bundle's shared
// ephemeral). Entries are stored window-major, row by (window, digit), so
// every MulShared gathers a contiguous num_keys-sized row, and the shared
// scalar means one digit decision covers the whole row. The endomorphism
// mirror is not materialized: phi is applied to the row while the addend is
// staged (one field multiplication per lane), halving build work and memory
// next to FixedBaseTable.
//
// The set holds 33 * 8 entries per key, so a certificate's sets are most of
// a secure engine's memory; entries are stored packed as their normalized
// (x, y) words, 64 bytes against an AffinePoint's 88, and unpacked as each
// row is staged. Infinity packs as (0, 0), which no curve point has:
// secp256k1 has no point with x = 0 or y = 0, since 7 is not a square mod p
// and -7 is not a cube.
class FixedBaseTableSet {
 public:
  // One shared normalization + per-window batch chains across all keys;
  // intended for certificate-sized sets (~100+ keys), where each row's
  // inversion amortizes across the keys.
  static FixedBaseTableSet Build(const std::vector<EcPoint>& bases);

  size_t num_keys() const { return m_; }

  // out[i] = k(recoding) * base_i for every key, advanced entirely in
  // batch-affine lockstep across the set.
  void MulShared(const FixedBaseTable::Recoding& recoding, AffinePoint* out) const;

 private:
  struct PackedEntry {
    U256 x, y;
  };

  size_t RowOffset(int window, int d) const {
    return (static_cast<size_t>(window) * FixedBaseTable::kEntriesPerWindow + (d - 1)) * m_;
  }

  size_t m_ = 0;
  // Row (window j, digit d) holds d * 16^j * base_i for i = 0..m_-1.
  std::vector<PackedEntry> entries_;
};

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_FIXED_BASE_H_
