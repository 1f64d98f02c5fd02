#include "src/crypto/fixed_base.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/crypto/chacha20.h"
#include "tests/u256_oracle.h"

namespace dstress::crypto {
namespace {

U256 OrderMinusOne() {
  U256 e;
  SubWithBorrow(CurveOrder(), U256::One(), &e);
  return e;
}

// Products of one table against many recodings, the shape of column
// decryption and the base-OT receiver.
std::vector<AffinePoint> MulAll(const FixedBaseTable& table, const std::vector<U256>& scalars) {
  std::vector<FixedBaseTable::Recoding> recodings;
  for (const U256& k : scalars) {
    recodings.push_back(FixedBaseTable::Recode(k));
  }
  std::vector<AffinePoint> out(scalars.size());
  MulBatch(table, recodings.data(), recodings.size(), out.data());
  return out;
}

// Table-backed multiplication must agree with the generic ladder for every
// scalar, including the group identities 0, 1, n-1 and the wrap-around n
// itself; zero recodings (0 and n) leave their lanes at infinity while the
// others advance.
TEST(FixedBaseTableTest, MulBatchMatchesGenericMulOnCorpus) {
  auto prg = ChaCha20Prg::FromSeed(71);
  std::vector<EcPoint> bases = {
      EcPoint::Generator(),
      MulBase(prg.NextScalar(CurveOrder())),
      MulBase(prg.NextScalar(CurveOrder())),
  };
  std::vector<U256> corpus = {U256(0), U256::One(), U256(2),     U256(8),
                              U256(16), U256(255),  OrderMinusOne(), CurveOrder()};
  // Powers of two hit every window boundary; n + small exercises reduction.
  U256 pow2 = U256::One();
  for (int i = 0; i < 255; i++) {
    pow2 = Shl(pow2, 1);
    if (i % 16 == 0) {
      corpus.push_back(pow2);
    }
  }
  U256 above_n;
  AddWithCarry(CurveOrder(), U256(12345), &above_n);
  corpus.push_back(above_n);
  while (corpus.size() < 1000) {
    corpus.push_back(prg.NextScalar(CurveOrder()));
  }

  for (const EcPoint& base : bases) {
    std::vector<AffinePoint> out = MulAll(FixedBaseTable(base), corpus);
    for (size_t i = 0; i < corpus.size(); i++) {
      EXPECT_EQ(EcPoint::FromAffinePoint(out[i]), base.Mul(corpus[i])) << "scalar " << i;
    }
  }
}

// Recode's digits are the signed 4-bit windows of the two GLV halves:
// every digit lies in [-8, 8], the table's range, and
// sum d1_j 16^j + lambda * sum d2_j 16^j is the scalar mod n, checked
// through the oracle, which shares no code with the split or the
// recoding. The range is checked with each half's sign divided out, as
// [-7, 8]: the digit set whose expansion is unique, so the digits are
// pinned, not only valid. Inputs: GlvSplitTest's edge scalars (ec_test),
// unreduced ones, and PRG scalars.
TEST(FixedBaseTableTest, RecodeDigitsAreSignedWindowsOfTheScalar) {
  const U256& n = CurveOrder();
  const U256 lambda =
      U256::FromHex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  ASSERT_EQ(ModPow(lambda, U256(3), n), U256::One());
  auto reduce = [&n](U256 v) {
    while (Cmp(v, n) >= 0) {
      SubWithBorrow(v, n, &v);
    }
    return v;
  };
  // sum d_j 16^j mod n, Horner from the top window down.
  auto window_sum = [&n](const int8_t* digits) {
    U256 acc;
    for (int j = FixedBaseTable::kHalfWindows - 1; j >= 0; j--) {
      for (int doubling = 0; doubling < 4; doubling++) {
        acc = ModAdd(acc, acc, n);
      }
      acc = digits[j] >= 0 ? ModAdd(acc, U256(static_cast<uint64_t>(digits[j])), n)
                           : ModSub(acc, U256(static_cast<uint64_t>(-digits[j])), n);
    }
    return acc;
  };
  const U256 half_n = Shr(n, 1);
  const U256 all_ones(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<U256> inputs = {U256(0),
                              U256(1),
                              U256(2),
                              ModSub(U256(0), U256(1), n),
                              ModSub(U256(0), U256(2), n),
                              half_n,
                              ModAdd(half_n, U256(1), n),
                              lambda,
                              ModSub(U256(0), lambda, n),
                              Shl(U256::One(), 128),
                              ModSub(Shl(U256::One(), 129), U256(1), n),
                              reduce(Shl(U256::One(), 255)),
                              reduce(all_ones),
                              n,
                              all_ones};
  auto prg = ChaCha20Prg::FromSeed(79);
  while (inputs.size() < 10000) {
    inputs.push_back(prg.NextScalar(n));
  }

  for (const U256& k : inputs) {
    const FixedBaseTable::Recoding r = FixedBaseTable::Recode(k);
    U256 k1, k2;
    int sign1 = 0, sign2 = 0;
    SplitScalarGlv(reduce(k), &k1, &sign1, &k2, &sign2);
    for (int j = 0; j < FixedBaseTable::kHalfWindows; j++) {
      const int d1 = sign1 * r.digit1[j];
      const int d2 = sign2 * r.digit2[j];
      ASSERT_TRUE(d1 >= -7 && d1 <= 8 && d2 >= -7 && d2 <= 8) << k.ToHex() << " window " << j;
    }
    ASSERT_EQ(ModAdd(window_sum(r.digit1), ModMul(lambda, window_sum(r.digit2), n), n),
              reduce(k))
        << k.ToHex();
  }
}

TEST(FixedBaseTableTest, InfinityBaseYieldsInfinity) {
  auto prg = ChaCha20Prg::FromSeed(72);
  std::vector<U256> scalars;
  for (int i = 0; i < 8; i++) {
    scalars.push_back(prg.NextScalar(CurveOrder()));
  }
  for (const AffinePoint& p : MulAll(FixedBaseTable(EcPoint::Infinity()), scalars)) {
    EXPECT_TRUE(p.infinity);
  }
}

// The base-OT sender's shape: many one-off bases, one scalar. Every lane
// must equal its own EcPoint::Mul, for the group identities, unreduced
// scalars, powers of two (a single wNAF digit in either GLV half) and PRG
// scalars, at batch sizes from one lane to more than two sender batches. The
// batches mix in infinity, P beside -P (equal x in two lanes of one batch
// step) and a repeated base.
TEST(MulVariableBasesTest, MatchesPerLaneMulOnCorpus) {
  auto prg = ChaCha20Prg::FromSeed(80);
  std::vector<U256> corpus = {U256(0), U256::One(), U256(2), OrderMinusOne(), CurveOrder()};
  U256 above_n;
  AddWithCarry(CurveOrder(), U256(12345), &above_n);
  corpus.push_back(above_n);
  for (int k : {1, 5, 63, 64, 128, 129, 200, 255}) {
    corpus.push_back(Shl(U256::One(), k));
  }
  while (corpus.size() < 24) {
    corpus.push_back(prg.NextScalar(CurveOrder()));
  }

  for (size_t count : {1u, 2u, 128u, 300u}) {
    std::vector<EcPoint> bases;
    const EcPoint p = MulBase(prg.NextScalar(CurveOrder()));
    bases.push_back(count == 1 ? EcPoint::Generator() : p);
    if (count >= 2) {
      bases.push_back(count == 2 ? p.Neg() : EcPoint::Infinity());
    }
    if (count > 2) {
      bases.push_back(p.Neg());
      bases.push_back(EcPoint::Generator());
    }
    while (bases.size() < count) {
      bases.push_back(MulBase(prg.NextScalar(CurveOrder())));
    }
    if (count > 2) {
      bases[count - 1] = bases[count / 2];  // a repeated base
    }
    std::vector<AffinePoint> affine(count);
    EcPoint::ToAffineBatch(bases.data(), count, affine.data());

    std::vector<AffinePoint> out(count);
    for (const U256& k : corpus) {
      MulVariableBases(affine.data(), count, k, out.data());
      for (size_t i = 0; i < count; i++) {
        ASSERT_EQ(EcPoint::FromAffinePoint(out[i]), bases[i].Mul(k))
            << "count " << count << " lane " << i << " scalar " << k.ToHex();
      }
    }
  }
}

TEST(FixedBaseTableSetTest, MulSharedMatchesGenericMulOnCorpus) {
  auto prg = ChaCha20Prg::FromSeed(78);
  // Set sizes from one key to a few dozen; a duplicated base and the
  // generator exercise equal-lane and canonical cases, and an infinity base
  // the packed (0, 0) entry.
  for (size_t m : {1u, 3u, 40u}) {
    std::vector<EcPoint> bases;
    bases.push_back(EcPoint::Generator());
    while (bases.size() < m) {
      bases.push_back(MulBase(prg.NextScalar(CurveOrder())));
    }
    if (m >= 3) {
      bases[m - 1] = bases[0];
      bases.push_back(EcPoint::Infinity());
    }
    FixedBaseTableSet set = FixedBaseTableSet::Build(bases);
    ASSERT_EQ(set.num_keys(), bases.size());

    std::vector<U256> corpus = {U256(0), U256::One(), U256(16), OrderMinusOne(), CurveOrder()};
    while (corpus.size() < 64) {
      corpus.push_back(prg.NextScalar(CurveOrder()));
    }
    std::vector<AffinePoint> out(bases.size());
    for (const U256& k : corpus) {
      set.MulShared(FixedBaseTable::Recode(k), out.data());
      for (size_t i = 0; i < bases.size(); i++) {
        EXPECT_EQ(EcPoint::FromAffinePoint(out[i]), bases[i].Mul(k)) << "key " << i;
      }
    }
  }
}

TEST(BatchAffineTest, BatchAddAssignHandlesEverySpecialCase) {
  auto prg = ChaCha20Prg::FromSeed(75);
  EcPoint p = MulBase(prg.NextScalar(CurveOrder()));
  EcPoint q = MulBase(prg.NextScalar(CurveOrder()));

  std::vector<EcPoint> lhs = {p, EcPoint::Infinity(), p, p, EcPoint::Infinity(), q};
  std::vector<EcPoint> rhs = {q, p, p, p.Neg(), EcPoint::Infinity(), EcPoint::Infinity()};
  std::vector<AffinePoint> acc(lhs.size()), add(rhs.size());
  EcPoint::ToAffineBatch(lhs.data(), lhs.size(), acc.data());
  EcPoint::ToAffineBatch(rhs.data(), rhs.size(), add.data());

  BatchAddAssign(acc.data(), add.data(), acc.size());
  for (size_t i = 0; i < acc.size(); i++) {
    EXPECT_EQ(EcPoint::FromAffinePoint(acc[i]), lhs[i].Add(rhs[i])) << "lane " << i;
  }
}

TEST(BatchAffineTest, BatchAddSelectedTouchesOnlyIndexedLanes) {
  auto prg = ChaCha20Prg::FromSeed(76);
  std::vector<EcPoint> points;
  for (int i = 0; i < 6; i++) {
    points.push_back(MulBase(prg.NextScalar(CurveOrder())));
  }
  std::vector<AffinePoint> acc(points.size());
  EcPoint::ToAffineBatch(points.data(), points.size(), acc.data());

  EcPoint delta = MulBase(prg.NextScalar(CurveOrder()));
  AffinePoint delta_aff;
  EcPoint::ToAffineBatch(&delta, 1, &delta_aff);
  std::vector<size_t> indices = {1, 4};
  std::vector<AffinePoint> add = {delta_aff, delta_aff};
  BatchAddSelected(acc.data(), indices.data(), add.data(), indices.size());
  for (size_t i = 0; i < points.size(); i++) {
    EcPoint want = (i == 1 || i == 4) ? points[i].Add(delta) : points[i];
    EXPECT_EQ(EcPoint::FromAffinePoint(acc[i]), want) << "lane " << i;
  }
}

TEST(BatchAffineTest, ToAffineBatchAndDecompressBatchRoundTrip) {
  auto prg = ChaCha20Prg::FromSeed(77);
  std::vector<EcPoint> points = {EcPoint::Infinity()};
  for (int i = 0; i < 40; i++) {
    points.push_back(MulBase(prg.NextScalar(CurveOrder())));
  }
  points.push_back(EcPoint::Infinity());

  std::vector<AffinePoint> affine(points.size());
  EcPoint::ToAffineBatch(points.data(), points.size(), affine.data());
  for (size_t i = 0; i < points.size(); i++) {
    EXPECT_EQ(EcPoint::FromAffinePoint(affine[i]), points[i]) << "lane " << i;
  }

  std::vector<uint8_t> wire(points.size() * EcPoint::kCompressedSize);
  EcPoint::CompressBatch(points.data(), points.size(), wire.data());
  std::vector<AffinePoint> decoded(points.size());
  ASSERT_TRUE(EcPoint::DecompressBatch(wire.data(), points.size(), decoded.data()));
  for (size_t i = 0; i < points.size(); i++) {
    EXPECT_EQ(EcPoint::FromAffinePoint(decoded[i]), points[i]) << "lane " << i;
  }

  wire[1] ^= 0xFF;  // corrupt one x coordinate
  EXPECT_FALSE(EcPoint::DecompressBatch(wire.data(), points.size(), decoded.data()));
}

}  // namespace
}  // namespace dstress::crypto
