// The naïve strawman of paper §5.5: run the entire systemic-risk
// computation as one monolithic MPC.
//
// The closed form of Eisenberg–Noe-style contagion essentially raises the
// N×N liability matrix to the I-th power, so the baseline cost is governed
// by an N×N fixed-point matrix multiplication circuit evaluated by all
// parties jointly. The paper measures this with a Wysteria program for
// N ≤ 25 (out of memory beyond that) and extrapolates O(N^3):
// (1750/25)^3 * 40 min * 11 ≈ 287 years. This module reproduces that
// methodology: build the circuit, run it in our GMW engine for small N,
// extrapolate to the full banking system.
#ifndef SRC_BASELINE_NAIVE_MPC_H_
#define SRC_BASELINE_NAIVE_MPC_H_

#include <cstdint>

#include "src/circuit/circuit.h"

namespace dstress::baseline {

struct NaiveMpcParams {
  int matrix_n = 10;      // matrix dimension
  int value_bits = 12;    // element width (the prototype's share width)
  int parties = 3;        // parties in the monolithic MPC
  uint64_t seed = 1;
};

struct NaiveMpcResult {
  double seconds = 0;
  uint64_t total_bytes = 0;
  size_t and_gates = 0;
  bool verified = false;  // output matched the plaintext product
};

// Builds the N×N matrix product circuit: inputs are two row-major matrices
// of value_bits elements; outputs the product (elements truncated to
// value_bits, matching fixed-point semantics).
circuit::Circuit BuildMatMulCircuit(int matrix_n, int value_bits);

// Evaluates one matrix multiplication in GMW among `parties` parties with
// dealer triples over a simulated transport (every party's role in one
// lockstep mpc::EvalBlock call) and verifies the result against a
// host-side product.
NaiveMpcResult RunNaiveMatMul(const NaiveMpcParams& params);

// §5.5 extrapolation: scales a measured multiplication cubically to
// `target_n` and multiplies by `power - 1` chained multiplications.
double ExtrapolateMatrixPowerSeconds(double measured_seconds, int measured_n, int target_n,
                                     int power);

}  // namespace dstress::baseline

#endif  // SRC_BASELINE_NAIVE_MPC_H_
