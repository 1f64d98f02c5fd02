// Golden digests of what an engine compiles for every lane of a finance
// model: the initial vertex states (Make{En,Egj}InitialStates) and the
// fixed-point reference ({En,Egj}SolveFixed: the TDS and the per-bank
// prorate or value words), plus the EN exact solve. The corpus covers a
// capped scale-free graph, a core-periphery graph with a dense core, and a
// one-vertex graph; degree bounds at MaxDegree() and two above it, so
// padding slots are written; two shocked sets; and 0, 1 and 9 iterations.
// The hex strings were captured from the per-slot search implementations
// the flat per-edge passes replaced. A mismatch prints the recomputed
// digest (see tests/fidelity_digest.h).
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/finance/workload.h"
#include "src/graph/generators.h"
#include "tests/fidelity_digest.h"

namespace dstress::finance {
namespace {

struct Corpus {
  const char* label;
  graph::Graph graph;
  int core_size;
  std::vector<int> degree_bounds;
  std::vector<ShockParams> shocks;
};

ShockParams Shock(std::vector<int> banks) {
  ShockParams shock;
  shock.shocked_banks = std::move(banks);
  shock.survival = 0.3;
  return shock;
}

Corpus ScaleFreeCorpus() {
  Rng rng(11);
  graph::Graph g = graph::CapDegree(graph::GenerateScaleFree(700, 2, rng), 6);
  const int d = g.MaxDegree();
  return {"scale_free 700 cap 6", std::move(g), 0, {d, d + 2}, {Shock({0}), Shock({0, 3, 5})}};
}

Corpus CorePeripheryCorpus() {
  Rng rng(12);
  graph::CorePeripheryParams params;
  params.num_vertices = 300;
  params.core_size = 10;
  graph::Graph g = graph::GenerateCorePeriphery(params, rng);
  const int d = g.MaxDegree();
  return {"core_periphery 300 core 10", std::move(g), 10, {d, d + 2},
          {Shock({0}), Shock({0, 3, 5})}};
}

Corpus OneVertexCorpus() { return {"one vertex", graph::Graph(1), 0, {1}, {Shock({0})}}; }

constexpr int kIterations[] = {0, 1, 9};

void AddDouble(FidelityDigest& digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  digest.Add(bits);
}

std::string EnDigest(const Corpus& corpus) {
  WorkloadParams workload;
  workload.core_size = corpus.core_size;
  FidelityDigest digest;
  for (int degree_bound : corpus.degree_bounds) {
    for (const ShockParams& shock : corpus.shocks) {
      const EnInstance instance = MakeEnWorkload(corpus.graph, workload, shock);
      for (int iterations : kIterations) {
        EnProgramParams params;
        params.degree_bound = degree_bound;
        params.iterations = iterations;
        digest.Add(static_cast<uint64_t>(degree_bound)).Add(static_cast<uint64_t>(iterations));
        for (const mpc::BitVector& state : MakeEnInitialStates(instance, params)) {
          digest.AddBits(state);
        }
        std::vector<uint64_t> prorate;
        digest.Add(EnSolveFixed(instance, params, &prorate));
        for (uint64_t word : prorate) {
          digest.Add(word);
        }
        std::vector<double> exact;
        AddDouble(digest, EnSolveExact(instance, iterations, &exact));
        for (double p : exact) {
          AddDouble(digest, p);
        }
      }
    }
  }
  return digest.Hex();
}

std::string EgjDigest(const Corpus& corpus) {
  WorkloadParams workload;
  workload.core_size = corpus.core_size;
  FidelityDigest digest;
  for (int degree_bound : corpus.degree_bounds) {
    for (const ShockParams& shock : corpus.shocks) {
      const EgjInstance instance = MakeEgjWorkload(corpus.graph, workload, shock);
      for (int iterations : kIterations) {
        EgjProgramParams params;
        params.degree_bound = degree_bound;
        params.iterations = iterations;
        digest.Add(static_cast<uint64_t>(degree_bound)).Add(static_cast<uint64_t>(iterations));
        for (const mpc::BitVector& state : MakeEgjInitialStates(instance, params)) {
          digest.AddBits(state);
        }
        std::vector<uint64_t> values;
        digest.Add(EgjSolveFixed(instance, params, &values));
        for (uint64_t word : values) {
          digest.Add(word);
        }
      }
    }
  }
  return digest.Hex();
}

TEST(CompiledLanesDigestTest, EisenbergNoeStatesAndSolves) {
  const Corpus scale_free = ScaleFreeCorpus();
  const Corpus core_periphery = CorePeripheryCorpus();
  const Corpus one_vertex = OneVertexCorpus();
  ExpectGoldenDigest(EnDigest(scale_free),
                     "5f1bb51c4541ec7fcd07f8b4adbcf321220ab201c9e5b069bda76ff327e48410",
                     scale_free.label);
  ExpectGoldenDigest(EnDigest(core_periphery),
                     "508694502e834d52c226654410b1c58034e004739c827e8afc47880c7d0b5905",
                     core_periphery.label);
  ExpectGoldenDigest(EnDigest(one_vertex),
                     "663cda66bed287ab287f09e9065623bf1b72e7c53033d63208eb4463971493ed",
                     one_vertex.label);
}

TEST(CompiledLanesDigestTest, ElliottGolubJacksonStatesAndSolves) {
  const Corpus scale_free = ScaleFreeCorpus();
  const Corpus core_periphery = CorePeripheryCorpus();
  const Corpus one_vertex = OneVertexCorpus();
  ExpectGoldenDigest(EgjDigest(scale_free),
                     "b6a6cf5e1d561bd476b307013080d9b3d5b4aaed26515bfa3bf648697523597c",
                     scale_free.label);
  ExpectGoldenDigest(EgjDigest(core_periphery),
                     "3665226a3a5207744599b84d42b0dee0091f6edb9655bf3be98766027442bf58",
                     core_periphery.label);
  ExpectGoldenDigest(EgjDigest(one_vertex),
                     "b70bf5cdc4411e97af6b271d0fdfc91c79f0e28985ee3a7b53cac9caeebe9a0d",
                     one_vertex.label);
}

}  // namespace
}  // namespace dstress::finance
