// Shared helpers for the benchmark harness.
//
// Scale note: every bench prints the paper-parameter rows when the
// environment variable DSTRESS_FULL=1 is set; by default the expensive
// end-to-end sweeps run a reduced configuration that finishes in minutes
// while preserving the paper's scaling shape (linear in block size for
// per-node MPC cost, ~quadratic end-to-end, O(N^3) for the naive baseline).
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <memory>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/circuit/eval_plan.h"
#include "src/common/stopwatch.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triple_factory.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"

namespace dstress::bench {

inline bool FullScale() {
  const char* v = std::getenv("DSTRESS_FULL");
  return v != nullptr && v[0] == '1';
}

struct BlockMpcResult {
  double seconds = 0;
  double bytes_per_node = 0;
};

// Evaluates `circuit` once in GMW within a single block of `block_size`
// parties (dealer triples unless use_ot), mirroring the paper's Figure 3/4
// microbenchmarks that run each MPC in isolation. Every party's role runs
// in one mpc::EvalBlock call on this thread, the lockstep plane the
// runtime's phases run; the circuit's EvalPlan is compiled before the
// timer, as the runtime compiles its plans once per run.
inline BlockMpcResult RunBlockMpc(const circuit::Circuit& circuit, int block_size,
                                  bool use_ot = false, uint64_t seed = 1) {
  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(block_size);
  net::Transport& net = *net_owner;
  auto prg = crypto::ChaCha20Prg::FromSeed(seed);
  mpc::BitVector inputs(circuit.num_inputs());
  for (auto& bit : inputs) {
    bit = prg.NextBit() ? 1 : 0;
  }
  auto shares = mpc::ShareBits(inputs, block_size, prg);
  circuit::EvalPlan plan(circuit);

  std::vector<net::NodeId> ids(block_size);
  for (int i = 0; i < block_size; i++) {
    ids[i] = i;
  }
  std::unique_ptr<mpc::TripleFactory> factory;
  std::vector<mpc::DealerTripleSource> dealers;
  dealers.reserve(block_size);  // `sources` points into it
  std::vector<mpc::TripleSource*> sources;
  if (use_ot) {
    mpc::TripleFactoryOptions options;
    options.prg_seed = seed;
    options.pipeline = false;  // Enqueue generates the wave on this thread
    factory = std::make_unique<mpc::TripleFactory>(&net, options);
  }
  for (int p = 0; p < block_size; p++) {
    sources.push_back(use_ot ? factory->ViewFor(/*tag=*/0, p)
                             : &dealers.emplace_back(p, block_size, seed));
  }

  // The timer covers triple generation: with use_ot the factory's one wave
  // (base OTs with every peer, IKNP extension and the cross-term
  // corrections) runs inside it, so fig3's OT ablation times the offline
  // and online phases together. Dealer triples are local draws.
  Stopwatch timer;
  if (use_ot) {
    factory->Enqueue({{/*tag=*/0, ids, circuit.stats().num_and}});
  }
  mpc::EvalBlock(&net, /*session=*/0, plan, ids, {shares}, sources);
  BlockMpcResult result;
  result.seconds = timer.ElapsedSeconds();
  result.bytes_per_node = net.AverageBytesPerNode();
  return result;
}

// The figure benches' fixed-point format (the prototype's 12-bit shares).
inline finance::FixedPointFormat BenchFormat() {
  finance::FixedPointFormat format;
  format.value_bits = 12;
  format.frac_bits = 8;
  return format;
}

// Standard program parameters used across the figure benches.
inline finance::EnProgramParams EnParams(int degree_bound, int iterations = 7) {
  finance::EnProgramParams params;
  params.format = BenchFormat();
  params.degree_bound = degree_bound;
  params.iterations = iterations;
  params.noise_alpha = 0.5;
  params.aggregate_bits = 24;
  return params;
}

inline finance::EgjProgramParams EgjParams(int degree_bound, int iterations = 7) {
  finance::EgjProgramParams params;
  params.format = BenchFormat();
  params.degree_bound = degree_bound;
  params.iterations = iterations;
  params.noise_alpha = 0.5;
  params.aggregate_bits = 24;
  return params;
}

}  // namespace dstress::bench

#endif  // BENCH_BENCH_UTIL_H_
