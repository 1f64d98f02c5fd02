// Ablation studies for the design decisions DESIGN.md calls out:
//
//  1. Kurosawa multi-recipient ElGamal (§5.1's ephemeral-key reuse) versus
//     independent encryptions — time and wire bytes per encrypted share.
//  2. Single aggregation block versus the §3.6 two-level aggregation tree —
//     aggregation-phase time and traffic as N grows.
//  3. §3.7 degree bucketing — per-vertex MPC cost under one conservative
//     degree bound versus per-bucket bounds on a core–periphery network.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/crypto/elgamal.h"
#include "src/engine/engine.h"
#include "src/graph/generators.h"
#include "src/programs/private_sum.h"

namespace dstress::bench {
namespace {

// --- 1. Kurosawa ephemeral reuse --------------------------------------------

void KurosawaAblation() {
  std::printf("# Ablation 1: multi-recipient ElGamal (Kurosawa) vs independent encryptions\n");
  std::printf("# one L=12-bit share encrypted for k+1 recipients\n");
  std::printf("block    independent(ms)  bytes     shared-ephemeral(ms)  bytes    speedup\n");
  constexpr int kBits = 12;
  constexpr int kTrials = 8;
  auto prg = crypto::ChaCha20Prg::FromSeed(42);
  for (int block_size : {8, 12, 16, 20}) {
    std::vector<crypto::ElGamalPublicKey> keys;
    std::vector<int64_t> msgs;
    for (int slot = 0; slot < block_size * kBits; slot++) {
      keys.push_back(crypto::ElGamalKeyGen(prg).pub);
      msgs.push_back(prg.NextBit() ? 1 : 0);
    }

    Stopwatch independent;
    size_t independent_bytes = 0;
    for (int t = 0; t < kTrials; t++) {
      independent_bytes = 0;
      for (size_t slot = 0; slot < keys.size(); slot++) {
        auto ct = crypto::ElGamalEncrypt(keys[slot], msgs[slot], prg);
        independent_bytes += crypto::ElGamalCiphertext::kSerializedSize;
        (void)ct;
      }
    }
    double independent_ms = independent.ElapsedSeconds() * 1e3 / kTrials;

    Stopwatch shared;
    size_t shared_bytes = 0;
    for (int t = 0; t < kTrials; t++) {
      auto multi = crypto::ElGamalEncryptMulti(keys, msgs, prg);
      shared_bytes = multi.SerializedSize();
    }
    double shared_ms = shared.ElapsedSeconds() * 1e3 / kTrials;

    std::printf("%-5d    %10.2f  %8zu     %14.2f  %8zu    %5.2fx\n", block_size, independent_ms,
                independent_bytes, shared_ms, shared_bytes, independent_ms / shared_ms);
  }
  std::printf("# shared ephemeral halves the point multiplications (2s -> s+1) and saves\n");
  std::printf("# one c1 point per slot on the wire\n\n");
}

// --- 2. aggregation tree ------------------------------------------------------

void AggregationTreeAblation() {
  std::printf("# Ablation 2: single aggregation block vs two-level tree (fanout 16)\n");
  std::printf("    N    flat agg(ms)    flat KB    tree agg(ms)    tree KB\n");
  for (int n : {32, 96, 200}) {
    programs::PrivateSumParams params;
    params.degree_bound = 1;
    params.noise.alpha = 0.5;
    params.noise.magnitude_bits = 8;
    params.noise.threshold_bits = 10;

    engine::RunSpec base;
    base.graph = graph::Graph(n);  // no edges: isolates the aggregation phase
    base.model = engine::ContagionModel::kCustom;
    base.custom_program = programs::BuildPrivateSumProgram(params);
    std::vector<uint32_t> values(n, 7);
    base.custom_states = programs::MakePrivateSumStates(values, params.value_bits);
    base.block_size = 4;
    base.seed = 9 + n;

    double ms[2];
    double kilobytes[2];
    int variant = 0;
    for (int fanout : {0, 16}) {
      engine::RunSpec spec = base;
      spec.aggregation_fanout = fanout;
      engine::RunReport report = engine::Engine(spec).Run();
      ms[variant] = report.metrics.aggregate.seconds * 1e3;
      kilobytes[variant] = static_cast<double>(report.metrics.aggregate.bytes) / 1e3;
      variant++;
    }
    std::printf("%5d    %12.3f %10.3f    %12.3f %10.3f\n", n, ms[0], kilobytes[0], ms[1],
                kilobytes[1]);
  }
  std::printf("# the tree bounds the root circuit at fanout inputs; the flat block's\n");
  std::printf("# circuit (and the root node's traffic) grows linearly with N\n\n");
}

// --- 3. degree bucketing ------------------------------------------------------

void DegreeBucketingAblation() {
  std::printf("# Ablation 3: one conservative degree bound vs degree buckets (§3.7)\n");
  graph::CorePeripheryParams gp;
  gp.num_vertices = 100;
  gp.core_size = 10;
  gp.core_density = 0.9;
  gp.max_core_links = 2;
  Rng rng(5);
  graph::Graph g = graph::GenerateCorePeriphery(gp, rng);
  int conservative_d = g.MaxDegree();

  // Buckets: periphery (small degree) and core (up to max degree).
  std::vector<int> thresholds = {8, conservative_d};
  std::vector<int> buckets = graph::DegreeBuckets(g, thresholds);
  int small = 0;
  for (int b : buckets) {
    small += b == 0 ? 1 : 0;
  }

  finance::EnProgramParams en;
  en.degree_bound = conservative_d;
  en.iterations = 1;
  circuit::Circuit big = core::BuildUpdateCircuit(finance::MakeEnProgram(en));
  en.degree_bound = thresholds[0];
  circuit::Circuit small_c = core::BuildUpdateCircuit(finance::MakeEnProgram(en));

  constexpr int kBlock = 8;
  BlockMpcResult big_cost = RunBlockMpc(big, kBlock);
  BlockMpcResult small_cost = RunBlockMpc(small_c, kBlock);

  double uniform_total = static_cast<double>(g.num_vertices()) * big_cost.seconds;
  double bucketed_total =
      small * small_cost.seconds + (g.num_vertices() - small) * big_cost.seconds;

  std::printf("network: %d banks, %d-bank dense core, max degree %d\n", gp.num_vertices,
              gp.core_size, conservative_d);
  std::printf("buckets: %d banks with degree <= %d, %d with degree <= %d\n", small,
              thresholds[0], gp.num_vertices - small, conservative_d);
  std::printf("EN update circuit: D=%-3d -> %zu AND gates, %.3f s per block MPC\n",
              conservative_d, big.stats().num_and, big_cost.seconds);
  std::printf("                   D=%-3d -> %zu AND gates, %.3f s per block MPC\n", thresholds[0],
              small_c.stats().num_and, small_cost.seconds);
  std::printf("total compute-step MPC time, uniform bound:  %.1f s\n", uniform_total);
  std::printf("total compute-step MPC time, bucketed:       %.1f s (%.1fx less)\n",
              bucketed_total, uniform_total / bucketed_total);
  std::printf("# cost: reveals which bucket each bank is in (coarse degree information)\n");
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::KurosawaAblation();
  dstress::bench::AggregationTreeAblation();
  dstress::bench::DegreeBucketingAblation();
  return 0;
}
