#include "src/crypto/u256.h"

#include <gtest/gtest.h>

#include "src/crypto/chacha20.h"
#include "tests/u256_oracle.h"

namespace dstress::crypto {
namespace {

TEST(U256Test, ZeroAndOne) {
  EXPECT_TRUE(U256::Zero().IsZero());
  EXPECT_FALSE(U256::One().IsZero());
  EXPECT_TRUE(U256::One().IsOdd());
  EXPECT_EQ(U256::One().BitLength(), 0);
  EXPECT_EQ(U256::Zero().BitLength(), -1);
}

TEST(U256Test, HexRoundTrip) {
  const std::string hex = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
  U256 v = U256::FromHex(hex);
  EXPECT_EQ(v.ToHex(), hex);
}

TEST(U256Test, ShortHexIsLeftPadded) {
  U256 v = U256::FromHex("ff");
  EXPECT_EQ(v, U256(255));
}

TEST(U256Test, BytesRoundTrip) {
  auto prg = ChaCha20Prg::FromSeed(1);
  for (int i = 0; i < 50; i++) {
    U256 v = prg.NextU256();
    uint8_t buf[32];
    v.ToBytesBe(buf);
    EXPECT_EQ(U256::FromBytesBe(buf), v);
  }
}

TEST(U256Test, AddSubInverse) {
  auto prg = ChaCha20Prg::FromSeed(2);
  for (int i = 0; i < 100; i++) {
    U256 a = prg.NextU256();
    U256 b = prg.NextU256();
    U256 sum;
    uint64_t carry = AddWithCarry(a, b, &sum);
    U256 back;
    uint64_t borrow = SubWithBorrow(sum, b, &back);
    // (a + b) - b == a, and the borrow mirrors the carry.
    EXPECT_EQ(back, a);
    EXPECT_EQ(carry, borrow);
  }
}

TEST(U256Test, AdditionCommutes) {
  auto prg = ChaCha20Prg::FromSeed(3);
  for (int i = 0; i < 100; i++) {
    U256 a = prg.NextU256();
    U256 b = prg.NextU256();
    U256 ab, ba;
    AddWithCarry(a, b, &ab);
    AddWithCarry(b, a, &ba);
    EXPECT_EQ(ab, ba);
  }
}

TEST(U256Test, CarryPropagation) {
  U256 max(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  U256 out;
  EXPECT_EQ(AddWithCarry(max, U256::One(), &out), 1u);
  EXPECT_TRUE(out.IsZero());
  EXPECT_EQ(SubWithBorrow(U256::Zero(), U256::One(), &out), 1u);
  EXPECT_EQ(out, max);
}

TEST(U256Test, CmpOrdersValues) {
  EXPECT_EQ(Cmp(U256(1), U256(2)), -1);
  EXPECT_EQ(Cmp(U256(2), U256(1)), 1);
  EXPECT_EQ(Cmp(U256(7), U256(7)), 0);
  U256 high(0, 0, 0, 1);
  U256 low(~0ULL, ~0ULL, ~0ULL, 0);
  EXPECT_EQ(Cmp(high, low), 1);
}

TEST(U256Test, MulFullMatchesSmallProducts) {
  U512 p = MulFull(U256(0xFFFFFFFFULL), U256(0xFFFFFFFFULL));
  EXPECT_EQ(p.w[0], 0xFFFFFFFE00000001ULL);
  for (int i = 1; i < 8; i++) {
    EXPECT_EQ(p.w[i], 0u);
  }
}

TEST(U256Test, MulFullCrossLimb) {
  // (2^64) * (2^64) = 2^128.
  U256 a(0, 1, 0, 0);
  U512 p = MulFull(a, a);
  EXPECT_EQ(p.w[2], 1u);
  EXPECT_EQ(p.w[0], 0u);
  EXPECT_EQ(p.w[1], 0u);
}

TEST(U256Test, ShiftsInverse) {
  auto prg = ChaCha20Prg::FromSeed(4);
  for (int shift : {1, 7, 63, 64, 65, 128, 200, 255}) {
    U256 v = prg.NextU256();
    // Clear top bits so the left shift is lossless.
    U256 masked = Shr(Shl(v, shift), shift);
    EXPECT_EQ(Shr(Shl(masked, shift), shift), masked) << "shift=" << shift;
  }
}

TEST(U256Test, ShiftZeroIsIdentity) {
  U256 v = U256::FromHex("deadbeef");
  EXPECT_EQ(Shl(v, 0), v);
  EXPECT_EQ(Shr(v, 0), v);
}

TEST(U256Test, Mod512SmallCases) {
  U512 p = MulFull(U256(100), U256(100));
  EXPECT_EQ(Mod512(p, U256(7)), U256(10000 % 7));
  EXPECT_EQ(Mod512(p, U256(10001)), U256(10000));
}

TEST(U256Test, ModMulMatchesNative) {
  auto prg = ChaCha20Prg::FromSeed(5);
  for (int i = 0; i < 200; i++) {
    uint64_t a = prg.NextU64() >> 33;
    uint64_t b = prg.NextU64() >> 33;
    uint64_t m = (prg.NextU64() >> 40) + 2;
    EXPECT_EQ(ModMul(U256(a), U256(b), U256(m)), U256((a * b) % m));
  }
}

TEST(U256Test, ModPowFermat) {
  // 2^(p-1) = 1 mod p for prime p.
  U256 p(1000003);
  U256 exp(1000002);
  EXPECT_EQ(ModPow(U256(2), exp, p), U256::One());
}

TEST(U256Test, ModInvRoundTrip) {
  auto prg = ChaCha20Prg::FromSeed(6);
  U256 m = U256::FromHex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  for (int i = 0; i < 50; i++) {
    U256 a = prg.NextScalar(m);
    U256 inv = ModInv(a, m);
    EXPECT_EQ(ModMul(a, inv, m), U256::One());
  }
}

TEST(U256Test, ModInvOfOne) {
  EXPECT_EQ(ModInv(U256::One(), U256(101)), U256::One());
}

class U256BitParamTest : public ::testing::TestWithParam<int> {};

TEST_P(U256BitParamTest, BitAccessMatchesShift) {
  int bit = GetParam();
  U256 v = Shl(U256::One(), bit);
  EXPECT_TRUE(v.Bit(bit));
  EXPECT_EQ(v.BitLength(), bit);
  for (int other : {0, 1, 100, 255}) {
    if (other != bit) {
      EXPECT_FALSE(v.Bit(other));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, U256BitParamTest,
                         ::testing::Values(0, 1, 31, 32, 63, 64, 127, 128, 191, 192, 255));

}  // namespace
}  // namespace dstress::crypto
