#include "src/baseline/naive_mpc.h"

#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"

namespace dstress::baseline {

circuit::Circuit BuildMatMulCircuit(int matrix_n, int value_bits) {
  DSTRESS_CHECK(matrix_n >= 1);
  circuit::Builder b;
  std::vector<circuit::Word> a(static_cast<size_t>(matrix_n) * matrix_n);
  std::vector<circuit::Word> bm(static_cast<size_t>(matrix_n) * matrix_n);
  for (auto& word : a) {
    word = b.InputWord(value_bits);
  }
  for (auto& word : bm) {
    word = b.InputWord(value_bits);
  }
  for (int i = 0; i < matrix_n; i++) {
    for (int j = 0; j < matrix_n; j++) {
      circuit::Word acc = b.ConstWord(0, value_bits);
      for (int k = 0; k < matrix_n; k++) {
        acc = b.Add(acc, b.Mul(a[static_cast<size_t>(i) * matrix_n + k],
                               bm[static_cast<size_t>(k) * matrix_n + j]));
      }
      b.OutputWord(acc);
    }
  }
  return b.Build();
}

NaiveMpcResult RunNaiveMatMul(const NaiveMpcParams& params) {
  circuit::Circuit circuit = BuildMatMulCircuit(params.matrix_n, params.value_bits);

  // Random input matrices.
  auto prg = crypto::ChaCha20Prg::FromSeed(params.seed);
  mpc::BitVector inputs;
  inputs.reserve(circuit.num_inputs());
  for (size_t i = 0; i < circuit.num_inputs(); i++) {
    inputs.push_back(prg.NextBit() ? 1 : 0);
  }
  std::vector<uint8_t> expected = circuit.Eval(inputs);

  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(params.parties);
  net::Transport& net = *net_owner;
  auto shares = mpc::ShareBits(inputs, params.parties, prg);
  circuit::EvalPlan plan(circuit);
  std::vector<net::NodeId> ids(params.parties);
  std::vector<mpc::DealerTripleSource> dealers;
  dealers.reserve(params.parties);  // `sources` points into it
  std::vector<mpc::TripleSource*> sources;
  for (int p = 0; p < params.parties; p++) {
    ids[p] = p;
    sources.push_back(&dealers.emplace_back(p, params.parties, params.seed));
  }

  NaiveMpcResult result;
  result.and_gates = circuit.stats().num_and;
  Stopwatch timer;
  std::vector<mpc::BitVector> outputs =
      mpc::EvalBlock(&net, /*session=*/0, plan, ids, {shares}, sources)[0];
  result.seconds = timer.ElapsedSeconds();
  result.total_bytes = net.TotalBytes();
  result.verified = mpc::ReconstructBits(outputs) == expected;
  return result;
}

double ExtrapolateMatrixPowerSeconds(double measured_seconds, int measured_n, int target_n,
                                     int power) {
  DSTRESS_CHECK(measured_n >= 1 && target_n >= measured_n && power >= 2);
  double ratio = static_cast<double>(target_n) / measured_n;
  return measured_seconds * ratio * ratio * ratio * (power - 1);
}

}  // namespace dstress::baseline
