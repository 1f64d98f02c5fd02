#include "src/baseline/naive_mpc.h"

#include <gtest/gtest.h>

#include "src/mpc/sharing.h"

namespace dstress::baseline {
namespace {

TEST(NaiveMpcTest, MatMulCircuitMatchesNative) {
  constexpr int kN = 3;
  constexpr int kBits = 8;
  circuit::Circuit c = BuildMatMulCircuit(kN, kBits);
  EXPECT_EQ(c.num_inputs(), 2u * kN * kN * kBits);
  EXPECT_EQ(c.num_outputs(), static_cast<size_t>(kN) * kN * kBits);

  uint64_t a[kN][kN] = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  uint64_t b[kN][kN] = {{9, 8, 7}, {6, 5, 4}, {3, 2, 1}};
  mpc::BitVector in;
  for (auto& row : a) {
    for (uint64_t v : row) {
      mpc::AppendBits(&in, mpc::WordToBits(v, kBits));
    }
  }
  for (auto& row : b) {
    for (uint64_t v : row) {
      mpc::AppendBits(&in, mpc::WordToBits(v, kBits));
    }
  }
  auto out = c.Eval(in);
  for (int i = 0; i < kN; i++) {
    for (int j = 0; j < kN; j++) {
      uint64_t expected = 0;
      for (int k = 0; k < kN; k++) {
        expected += a[i][k] * b[k][j];
      }
      expected &= (1u << kBits) - 1;
      EXPECT_EQ(mpc::BitsToWord(out, static_cast<size_t>(i * kN + j) * kBits, kBits), expected)
          << i << "," << j;
    }
  }
}

TEST(NaiveMpcTest, AndCountGrowsCubically) {
  size_t and4 = BuildMatMulCircuit(4, 8).stats().num_and;
  size_t and8 = BuildMatMulCircuit(8, 8).stats().num_and;
  double ratio = static_cast<double>(and8) / and4;
  EXPECT_NEAR(ratio, 8.0, 1.0);  // (8/4)^3
}

TEST(NaiveMpcTest, GmwRunVerifies) {
  NaiveMpcParams params;
  params.matrix_n = 4;
  params.value_bits = 8;
  params.parties = 3;
  NaiveMpcResult result = RunNaiveMatMul(params);
  EXPECT_TRUE(result.verified);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.total_bytes, 0u);
  EXPECT_EQ(result.and_gates, BuildMatMulCircuit(4, 8).stats().num_and);
}

TEST(NaiveMpcTest, ExtrapolationFormula) {
  // The paper's §5.5 extrapolation: (1750/25)^3 * 40 min * 11 ≈ 287 years.
  double seconds = ExtrapolateMatrixPowerSeconds(40.0 * 60, 25, 1750, 12);
  double years = seconds / (365.25 * 24 * 3600);
  EXPECT_NEAR(years, 287.0, 15.0);
}

TEST(NaiveMpcTest, ExtrapolationScalesWithPower) {
  double base = ExtrapolateMatrixPowerSeconds(10, 10, 100, 2);
  EXPECT_NEAR(ExtrapolateMatrixPowerSeconds(10, 10, 100, 4), 3 * base, 1e-9);
}

}  // namespace
}  // namespace dstress::baseline
