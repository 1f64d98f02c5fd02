#include "src/crypto/fp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/crypto/chacha20.h"
#include "tests/u256_oracle.h"

namespace dstress::crypto {
namespace {

Fp RandomFp(ChaCha20Prg& prg) { return Fp::FromU256(prg.NextU256()); }

// a^e by square-and-multiply, for the power identities below; the library
// itself needs no generic exponentiation.
Fp Pow(const Fp& a, const U256& e) {
  Fp result = Fp::FromUint64(1);
  Fp base = a;
  int top = e.BitLength();
  for (int i = 0; i <= top; i++) {
    if (e.Bit(i)) {
      result = result * base;
    }
    base = base.Square();
  }
  return result;
}

TEST(FpTest, PrimeHasExpectedValue) {
  EXPECT_EQ(Fp::P().ToHex(),
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
}

TEST(FpTest, AddSubRoundTrip) {
  auto prg = ChaCha20Prg::FromSeed(10);
  for (int i = 0; i < 200; i++) {
    Fp a = RandomFp(prg);
    Fp b = RandomFp(prg);
    EXPECT_EQ(a + b - b, a);
    EXPECT_EQ(a - a, Fp::FromUint64(0));
  }
}

TEST(FpTest, NegIsAdditiveInverse) {
  auto prg = ChaCha20Prg::FromSeed(11);
  for (int i = 0; i < 100; i++) {
    Fp a = RandomFp(prg);
    EXPECT_EQ(a + a.Neg(), Fp::FromUint64(0));
  }
  EXPECT_EQ(Fp::FromUint64(0).Neg(), Fp::FromUint64(0));
}

TEST(FpTest, MulCommutativeAssociativeDistributive) {
  auto prg = ChaCha20Prg::FromSeed(12);
  for (int i = 0; i < 100; i++) {
    Fp a = RandomFp(prg);
    Fp b = RandomFp(prg);
    Fp c = RandomFp(prg);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(FpTest, MulByZeroAndOne) {
  auto prg = ChaCha20Prg::FromSeed(13);
  Fp zero = Fp::FromUint64(0);
  Fp one = Fp::FromUint64(1);
  for (int i = 0; i < 50; i++) {
    Fp a = RandomFp(prg);
    EXPECT_EQ(a * zero, zero);
    EXPECT_EQ(a * one, a);
  }
}

TEST(FpTest, SquareMatchesMul) {
  auto prg = ChaCha20Prg::FromSeed(14);
  for (int i = 0; i < 100; i++) {
    Fp a = RandomFp(prg);
    EXPECT_EQ(a.Square(), a * a);
  }
}

TEST(FpTest, ReductionOfMaxProduct) {
  // (p-1)^2 mod p == 1.
  Fp p_minus_1 = Fp::FromUint64(0) - Fp::FromUint64(1);
  EXPECT_EQ(p_minus_1 * p_minus_1, Fp::FromUint64(1));
}

TEST(FpTest, InverseRoundTrip) {
  auto prg = ChaCha20Prg::FromSeed(15);
  for (int i = 0; i < 50; i++) {
    Fp a = RandomFp(prg);
    if (a.IsZero()) {
      continue;
    }
    EXPECT_EQ(a * a.Inv(), Fp::FromUint64(1));
  }
}

TEST(FpTest, PowSmallExponents) {
  Fp three = Fp::FromUint64(3);
  EXPECT_EQ(Pow(three, U256(0)), Fp::FromUint64(1));
  EXPECT_EQ(Pow(three, U256(1)), three);
  EXPECT_EQ(Pow(three, U256(5)), Fp::FromUint64(243));
}

TEST(FpTest, SqrtOfSquares) {
  auto prg = ChaCha20Prg::FromSeed(16);
  for (int i = 0; i < 50; i++) {
    Fp a = RandomFp(prg);
    Fp square = a.Square();
    Fp root = Fp::FromUint64(0);
    ASSERT_TRUE(square.Sqrt(&root));
    EXPECT_TRUE(root == a || root == a.Neg());
  }
}

TEST(FpTest, SqrtRejectsNonResidue) {
  // Find a quadratic non-residue by testing candidates: x is a residue iff
  // x^((p-1)/2) == 1. For secp256k1's p, 3 is a known non-residue.
  Fp three = Fp::FromUint64(3);
  Fp root = Fp::FromUint64(0);
  EXPECT_FALSE(three.Sqrt(&root));
}

TEST(FpTest, FromU256ReducesOverflow) {
  // p + 5 should reduce to 5.
  U256 over;
  AddWithCarry(Fp::P(), U256(5), &over);
  EXPECT_EQ(Fp::FromU256(over), Fp::FromUint64(5));
}

// --- differential test against the generic-modulus helpers ----------------
// u256_oracle.h's ModAdd / ModSub / ModMul / ModInv with modulus p are the
// oracle; the Fp side never normalizes between steps, so every operation
// runs on the weakly reduced outputs of the previous one.

U256 PMinus(uint64_t k) {
  U256 out;
  SubWithBorrow(Fp::P(), U256(k), &out);
  return out;
}

// v mod p for any 256-bit v (2^256 - 1 < 2p, so one subtraction suffices).
U256 ModP(const U256& v) {
  U256 out = v;
  if (Cmp(out, Fp::P()) >= 0) {
    SubWithBorrow(out, Fp::P(), &out);
  }
  return out;
}

// 0, 1, 2, p-1, p-2 and 2^255, then values in [p, 2^256) loaded unreduced:
// p, p+1, p+2^32 and 2^256-1 (every limb at its bound).
std::vector<U256> EdgeValues() {
  U256 all_ones(~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0});
  U256 p_plus_2_32;
  AddWithCarry(Fp::P(), U256(uint64_t{1} << 32), &p_plus_2_32);
  U256 p_plus_1;
  AddWithCarry(Fp::P(), U256::One(), &p_plus_1);
  return {U256(0),    U256(1),  U256(2),  PMinus(1),   PMinus(2),
          Shl(U256(1), 255), Fp::P(), p_plus_1, p_plus_2_32, all_ones};
}

void ExpectAllOpsMatch(const U256& a, const U256& b) {
  const U256& p = Fp::P();
  Fp fa = Fp::FromU256(a);
  Fp fb = Fp::FromU256(b);
  U256 ra = ModP(a);
  U256 rb = ModP(b);
  std::string where = a.ToHex() + ", " + b.ToHex();
  EXPECT_EQ((fa + fb).raw(), ModAdd(ra, rb, p)) << where;
  EXPECT_EQ((fa - fb).raw(), ModSub(ra, rb, p)) << where;
  EXPECT_EQ((fa * fb).raw(), ModMul(ra, rb, p)) << where;
  EXPECT_EQ(fa == fb, ra == rb) << where;
  EXPECT_EQ(fa.raw(), ra) << where;
  EXPECT_EQ(fa.Square().raw(), ModMul(ra, ra, p)) << where;
  EXPECT_EQ(fa.Neg().raw(), ModSub(U256(0), ra, p)) << where;
  EXPECT_EQ(fa.IsZero(), ra.IsZero()) << where;
  EXPECT_EQ(fa.IsOdd(), ra.IsOdd()) << where;
}

TEST(FpDifferentialTest, EdgeValuesMatchGenericHelpers) {
  std::vector<U256> edges = EdgeValues();
  for (const U256& a : edges) {
    for (const U256& b : edges) {
      ExpectAllOpsMatch(a, b);
    }
    if (!ModP(a).IsZero()) {
      EXPECT_EQ(Fp::FromU256(a).Inv().raw(), ModInv(ModP(a), Fp::P())) << a.ToHex();
    }
  }
}

TEST(FpDifferentialTest, RandomValuesMatchGenericHelpers) {
  auto prg = ChaCha20Prg::FromSeed(17);
  std::vector<U256> values = EdgeValues();
  while (values.size() < 400) {
    values.push_back(prg.NextU256());
  }
  for (size_t i = 0; i + 1 < values.size(); i++) {
    ExpectAllOpsMatch(values[i], values[i + 1]);
    ExpectAllOpsMatch(values[i + 1], values[i]);
  }
  for (size_t i = values.size() - 40; i < values.size(); i++) {
    Fp a = Fp::FromU256(values[i]);
    EXPECT_EQ(a.Inv().raw(), ModInv(ModP(values[i]), Fp::P()));
  }
}

TEST(FpDifferentialTest, RandomWalksMatchGenericHelpersAtEveryStep) {
  const U256& p = Fp::P();
  const std::vector<U256> edges = EdgeValues();
  for (uint64_t seed : {18, 19}) {
    auto prg = ChaCha20Prg::FromSeed(seed);
    U256 start = prg.NextU256();
    Fp acc = Fp::FromU256(start);
    U256 ref = ModP(start);
    for (int step = 0; step < 10000; step++) {
      uint64_t pick = prg.NextU64();
      // Operands: an edge value, a fresh random value, or the accumulator
      // itself, so limbs at their bound meet limbs at their bound.
      U256 raw_operand;
      Fp operand;
      switch ((pick >> 8) % 3) {
        case 0:
          raw_operand = edges[(pick >> 16) % edges.size()];
          operand = Fp::FromU256(raw_operand);
          break;
        case 1:
          raw_operand = prg.NextU256();
          operand = Fp::FromU256(raw_operand);
          break;
        default:
          raw_operand = ref;
          operand = acc;
          break;
      }
      U256 rv = ModP(raw_operand);
      switch (pick % 5) {
        case 0:
          acc = acc + operand;
          ref = ModAdd(ref, rv, p);
          break;
        case 1:
          acc = acc - operand;
          ref = ModSub(ref, rv, p);
          break;
        case 2:
          acc = acc.Neg();
          ref = ModSub(U256(0), ref, p);
          break;
        case 3:
          acc = acc * operand;
          ref = ModMul(ref, rv, p);
          break;
        default:
          acc = acc.Square();
          ref = ModMul(ref, ref, p);
          break;
      }
      ASSERT_EQ(acc.raw(), ref) << "seed " << seed << " step " << step << " op " << pick % 5;
      ASSERT_EQ(acc.IsOdd(), ref.IsOdd()) << "seed " << seed << " step " << step;
      ASSERT_EQ(acc == Fp::FromU256(ref), true) << "seed " << seed << " step " << step;
      if (ref.IsZero()) {
        // Restart from a fresh value so the walk does not collapse to 0.
        U256 fresh = prg.NextU256();
        acc = Fp::FromU256(fresh);
        ref = ModP(fresh);
      }
    }
  }
}

TEST(FpDifferentialTest, UnreducedRepresentativesNormalize) {
  // x + p fits in 256 bits for x < 2^256 - p = 2^32 + 977, so FromU256(x + p)
  // loads a second, unreduced representative of x.
  auto prg = ChaCha20Prg::FromSeed(20);
  std::vector<uint64_t> xs = {0, 1, 2, 3, 976, 977, uint64_t{1} << 32, 0x1000003D0ULL};
  while (xs.size() < 64) {
    xs.push_back(prg.NextU64() % 0x1000003D1ULL);
  }
  for (uint64_t v : xs) {
    U256 x(v);
    U256 x_plus_p;
    ASSERT_EQ(AddWithCarry(x, Fp::P(), &x_plus_p), 0u);
    Fp lo = Fp::FromU256(x);
    Fp hi = Fp::FromU256(x_plus_p);
    EXPECT_EQ(hi.raw(), x) << v;
    EXPECT_EQ(hi.IsOdd(), x.IsOdd()) << v;
    EXPECT_EQ(hi.IsZero(), x.IsZero()) << v;
    EXPECT_TRUE(hi == lo) << v;
    EXPECT_FALSE(hi != lo) << v;
    EXPECT_FALSE(hi == lo + Fp::FromUint64(1)) << v;
    Fp r = Fp::FromU256(prg.NextU256());
    EXPECT_EQ(hi * r, lo * r) << v;
    EXPECT_EQ((hi + r).raw(), (lo + r).raw()) << v;
  }
}

TEST(FpDifferentialTest, BatchInvertMatchesModInv) {
  auto prg = ChaCha20Prg::FromSeed(21);
  // From a single value (the total product is the value itself) to a
  // large batch; every batch starts with 1, p-1 and 2^255.
  for (size_t size : {1u, 2u, 63u, 64u, 65u, 1000u}) {
    std::vector<U256> raw = {U256(1), PMinus(1), Shl(U256(1), 255)};
    raw.resize(std::min<size_t>(raw.size(), size));
    while (raw.size() < size) {
      raw.push_back(prg.NextU256());
    }
    std::vector<Fp> values;
    for (const U256& v : raw) {
      values.push_back(Fp::FromU256(v));
    }
    Fp::BatchInvert(values.data(), values.size());
    for (size_t i = 0; i < raw.size(); i++) {
      EXPECT_EQ(values[i].raw(), ModInv(ModP(raw[i]), Fp::P())) << "size " << size << " " << i;
    }
  }
}

// Inv is a safegcd over signed 62-bit limbs whose length shrinks as f and g
// do, with a final normalization from (-2p, p) into [0, p). The inputs cover
// the shapes that reach each of those steps: small values (the length
// shrinks after the first batches), powers of two and all-ones runs at every
// length (long zero runs for the divsteps' count-trailing-zeros), values
// next to p and p/2, unreduced loads, weakly reduced results of - and Neg
// (limbs at their bounds), and PRG values. Each inverse is checked against
// the oracle's binary extended gcd and by a * a^-1 = 1.
TEST(FpDifferentialTest, InverseMatchesModInvOnEveryLimbShape) {
  const U256& p = Fp::P();
  std::vector<Fp> inputs;
  std::vector<U256> expected_input;  // the value mod p each input encodes
  auto add = [&](const Fp& a, const U256& reduced) {
    inputs.push_back(a);
    expected_input.push_back(reduced);
  };
  auto add_raw = [&](const U256& v) { add(Fp::FromU256(v), ModP(v)); };

  const U256 half_down = Shr(PMinus(1), 1);  // (p-1)/2
  U256 half_up;
  AddWithCarry(half_down, U256::One(), &half_up);  // (p+1)/2
  for (const U256& v : {U256(1), U256(2), U256(3), PMinus(1), PMinus(2), half_down, half_up}) {
    add_raw(v);
  }
  for (int k = 0; k < 256; k++) {
    const U256 pow2 = Shl(U256::One(), k);
    U256 pow2_minus_1;
    SubWithBorrow(pow2, U256::One(), &pow2_minus_1);
    add_raw(pow2);
    if (k > 0) {
      add_raw(pow2_minus_1);
    }
  }
  add_raw(U256((uint64_t{1} << 62) + 1));
  add_raw(U256((uint64_t{1} << 62) - 1));
  auto prg = ChaCha20Prg::FromSeed(22);
  for (int bits = 1; bits <= 62; bits++) {
    const uint64_t v = prg.NextU64() >> (64 - bits);
    add_raw(U256(v == 0 ? 1 : v));
  }
  // Unreduced loads: p + 1 and 2^256 - 1.
  U256 p_plus_1;
  AddWithCarry(p, U256::One(), &p_plus_1);
  add_raw(p_plus_1);
  add_raw(U256(~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}));
  // Weakly reduced: x - 0 and 0 - x carry 4p's limbs, and Neg of an
  // unreduced load starts from limbs at their bounds.
  const Fp zero = Fp::FromUint64(0);
  for (const U256& v : EdgeValues()) {
    if (ModP(v).IsZero()) {
      continue;
    }
    const Fp a = Fp::FromU256(v);
    add(a - zero, ModP(v));
    add(zero - a, ModSub(U256(0), ModP(v), p));
    add(a.Neg(), ModSub(U256(0), ModP(v), p));
    add(a.Neg().Neg(), ModP(v));
    add(a + a.Neg().Neg(), ModAdd(ModP(v), ModP(v), p));
  }
  while (inputs.size() < 100000 + 700) {
    add_raw(prg.NextU256());
  }

  const Fp one = Fp::FromUint64(1);
  for (size_t i = 0; i < inputs.size(); i++) {
    const U256& x = expected_input[i];
    if (x.IsZero()) {
      continue;
    }
    const Fp inv = inputs[i].Inv();
    ASSERT_EQ(inv.raw(), ModInv(x, p)) << "input " << i << ": " << x.ToHex();
    ASSERT_EQ(inputs[i] * inv, one) << "input " << i << ": " << x.ToHex();
  }
}

TEST(FpDeathTest, InverseOfZeroAborts) {
  EXPECT_DEATH(Fp::FromUint64(0).Inv(), "");
  // p loaded unreduced is zero too.
  EXPECT_DEATH(Fp::FromU256(Fp::P()).Inv(), "");
}

class FpPowParamTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FpPowParamTest, PowAgainstRepeatedMul) {
  uint64_t e = GetParam();
  Fp base = Fp::FromUint64(7);
  Fp expected = Fp::FromUint64(1);
  for (uint64_t i = 0; i < e; i++) {
    expected = expected * base;
  }
  EXPECT_EQ(Pow(base, U256(e)), expected);
}

INSTANTIATE_TEST_SUITE_P(SmallExponents, FpPowParamTest,
                         ::testing::Values(0, 1, 2, 3, 10, 17, 31, 64, 100, 255));

}  // namespace
}  // namespace dstress::crypto
