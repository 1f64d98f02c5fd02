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
#include <thread>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/common/stopwatch.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/mpc/gmw.h"
#include "src/mpc/sharing.h"
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
// microbenchmarks that run each MPC in isolation.
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

  std::vector<net::NodeId> ids(block_size);
  for (int i = 0; i < block_size; i++) {
    ids[i] = i;
  }
  // The timer covers triple generation: an OtTripleSource runs its base OTs
  // with every peer lazily inside its first Generate, which runs inside the
  // timed Eval, so fig3's OT ablation times base-OT setup, IKNP extension
  // and the GMW online phase together. Dealer triples are local draws.
  std::vector<std::unique_ptr<mpc::TripleSource>> sources(block_size);
  for (int p = 0; p < block_size; p++) {
    if (use_ot) {
      sources[p] = std::make_unique<mpc::OtTripleSource>(
          &net, ids, p, crypto::ChaCha20Prg::FromSeed(seed + 1000 + p));
    } else {
      sources[p] = std::make_unique<mpc::DealerTripleSource>(p, block_size, seed);
    }
  }

  Stopwatch timer;
  std::vector<std::thread> threads;
  for (int p = 0; p < block_size; p++) {
    threads.emplace_back(
        [&, p] { mpc::GmwParty(&net, ids, p, sources[p].get()).Eval(circuit, shares[p]); });
  }
  for (auto& t : threads) {
    t.join();
  }
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
