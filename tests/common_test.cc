#include <gtest/gtest.h>

#include <cmath>

#include "src/common/bits.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"

namespace dstress {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(HexEncode(data), "0001abff7f");
  EXPECT_EQ(HexDecode("0001abff7f"), data);
  EXPECT_EQ(HexDecode("0001ABFF7F"), data);
  EXPECT_EQ(HexDecode(""), Bytes{});
}

TEST(ByteWriterTest, LittleEndianLayout) {
  ByteWriter w;
  w.U8(0x12);
  w.U16(0x3456);
  w.U32(0x789abcde);
  w.U64(0x0102030405060708ULL);
  EXPECT_EQ(HexEncode(w.bytes()), "125634debc9a780807060504030201");
}

TEST(ByteReaderTest, ReadsBackWriterOutput) {
  ByteWriter w;
  w.U8(7);
  w.U16(1234);
  w.U32(567890);
  w.U64(~0ULL);
  w.Blob({1, 2, 3});
  Bytes raw = w.Take();
  ByteReader r(raw);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U16(), 1234);
  EXPECT_EQ(r.U32(), 567890u);
  EXPECT_EQ(r.U64(), ~0ULL);
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ByteReaderTest, RemainingTracksCursor) {
  Bytes raw = {1, 2, 3, 4};
  ByteReader r(raw);
  EXPECT_EQ(r.remaining(), 4u);
  r.U16();
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(RngTest, Deterministic) {
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 100; i++) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; i++) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, LaplaceMeanAndScale) {
  Rng rng(10);
  constexpr double kScale = 3.0;
  constexpr int kTrials = 20000;
  double sum = 0, abs_sum = 0;
  for (int i = 0; i < kTrials; i++) {
    double v = rng.Laplace(kScale);
    sum += v;
    abs_sum += std::fabs(v);
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.15);
  // E|Laplace(b)| = b.
  EXPECT_NEAR(abs_sum / kTrials, kScale, 0.15);
}

TEST(RngTest, GeometricMean) {
  Rng rng(11);
  constexpr double kP = 0.25;
  constexpr int kTrials = 20000;
  double sum = 0;
  for (int i = 0; i < kTrials; i++) {
    int64_t v = rng.Geometric(kP);
    ASSERT_GE(v, 0);
    sum += static_cast<double>(v);
  }
  // E[Geo(p)] = (1-p)/p = 3.
  EXPECT_NEAR(sum / kTrials, 3.0, 0.2);
}

TEST(RngTest, TwoSidedGeometricSymmetry) {
  Rng rng(12);
  constexpr double kAlpha = 0.7;
  constexpr int kTrials = 20000;
  double sum = 0;
  int zeros = 0;
  for (int i = 0; i < kTrials; i++) {
    int64_t v = rng.TwoSidedGeometric(kAlpha);
    sum += static_cast<double>(v);
    zeros += v == 0 ? 1 : 0;
  }
  EXPECT_NEAR(sum / kTrials, 0.0, 0.1);
  // P(0) = (1-a)/(1+a) ~ 0.176.
  EXPECT_NEAR(static_cast<double>(zeros) / kTrials, (1 - kAlpha) / (1 + kAlpha), 0.02);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double sink = 0;
  for (int i = 0; i < 100000; i++) {
    sink += std::sqrt(static_cast<double>(i));
  }
  EXPECT_GE(sink, 0.0);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  double first = sw.ElapsedSeconds();
  EXPECT_GE(sw.ElapsedSeconds(), first);
  sw.Reset();
  EXPECT_LE(sw.ElapsedSeconds(), first + 1.0);
}

TEST(PackedBitsTest, SetGetRoundTrip) {
  PackedBits bits(3, 0);
  SetBit(bits, 0, true);
  SetBit(bits, 63, true);
  SetBit(bits, 64, true);
  SetBit(bits, 130, true);
  EXPECT_TRUE(GetBit(bits, 0));
  EXPECT_TRUE(GetBit(bits, 63));
  EXPECT_TRUE(GetBit(bits, 64));
  EXPECT_TRUE(GetBit(bits, 130));
  EXPECT_FALSE(GetBit(bits, 1));
  SetBit(bits, 63, false);
  EXPECT_FALSE(GetBit(bits, 63));
  EXPECT_EQ(PackedWords(0), 0u);
  EXPECT_EQ(PackedWords(1), 1u);
  EXPECT_EQ(PackedWords(64), 1u);
  EXPECT_EQ(PackedWords(65), 2u);
}

TEST(PackedBitsTest, TransposeBits64x64MatchesPerBitReference) {
  Rng rng(9);
  uint64_t x[64];
  uint64_t original[64];
  for (int r = 0; r < 64; r++) {
    x[r] = original[r] = rng.Next();
  }
  TransposeBits64x64(x);
  for (int r = 0; r < 64; r++) {
    for (int c = 0; c < 64; c++) {
      ASSERT_EQ((x[c] >> r) & 1, (original[r] >> c) & 1) << r << "," << c;
    }
  }
}

PackedBits RandomBits(Rng& rng, size_t bits) {
  PackedBits out(PackedWords(bits));
  for (uint64_t& w : out) {
    w = rng.Next();
  }
  return out;
}

// CopyBits / XorBits against a per-bit loop over every combination of
// aligned and unaligned offsets, with lengths covering n = 0, every tail of
// 1-63 bits and multi-word spans. Both arrays are sized to exactly the
// words their range covers, so a read or write past the range is out of
// bounds (and fails under AddressSanitizer).
TEST(PackedBitsTest, CopyAndXorBitsMatchPerBitReference) {
  Rng rng(10);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 130; n++) {
    lengths.push_back(n);
  }
  for (size_t n : {191, 192, 193, 255, 256, 257, 1000}) {
    lengths.push_back(n);
  }
  for (size_t dst_off : {0, 1, 5, 63, 64, 67, 127}) {
    for (size_t src_off : {0, 1, 31, 63, 64, 100}) {
      for (size_t n : lengths) {
        const PackedBits src = RandomBits(rng, src_off + n);
        const PackedBits dst = RandomBits(rng, dst_off + n);
        PackedBits copied = dst;
        PackedBits xored = dst;
        PackedBits want_copy = dst;
        PackedBits want_xor = dst;
        for (size_t i = 0; i < n; i++) {
          SetBit(want_copy, dst_off + i, GetBit(src, src_off + i));
          SetBit(want_xor, dst_off + i, GetBit(dst, dst_off + i) ^ GetBit(src, src_off + i));
        }
        CopyBits(copied.data(), dst_off, src.data(), src_off, n);
        XorBits(xored.data(), dst_off, src.data(), src_off, n);
        ASSERT_EQ(copied, want_copy) << dst_off << " " << src_off << " " << n;
        ASSERT_EQ(xored, want_xor) << dst_off << " " << src_off << " " << n;
      }
    }
  }
}

}  // namespace
}  // namespace dstress
