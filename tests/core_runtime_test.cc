#include "src/core/runtime.h"

#include <gtest/gtest.h>

#include "src/core/vertex_program.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/finance/workload.h"
#include "src/graph/generators.h"

namespace dstress::core {
namespace {

// A program whose contribution is just the state value: aggregate = sum of
// states + noise; update adds the sum of incoming messages and broadcasts
// the vertex's (constant) seed value.
VertexProgram MakeSumProgram(int degree_bound, int iterations, double noise_alpha) {
  VertexProgram program;
  program.state_bits = 16;
  program.message_bits = 8;
  program.degree_bound = degree_bound;
  program.iterations = iterations;
  program.aggregate_bits = 24;
  program.output_noise.alpha = noise_alpha;
  program.output_noise.magnitude_bits = 8;
  program.output_noise.threshold_bits = 10;
  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs,
                            circuit::Word* new_state, std::vector<circuit::Word>* out_msgs) {
    // State: low 8 bits = immutable seed, high 8 bits = accumulator.
    circuit::Word seed(state.begin(), state.begin() + 8);
    circuit::Word acc(state.begin() + 8, state.end());
    for (const auto& msg : in_msgs) {
      acc = b.Add(acc, msg);
    }
    *new_state = seed;
    new_state->insert(new_state->end(), acc.begin(), acc.end());
    out_msgs->assign(in_msgs.size(), seed);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(circuit::Word(state.begin() + 8, state.end()), 24);
  };
  return program;
}

graph::Graph Ring(int n) {
  graph::Graph g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g;
}

TEST(RuntimeTest, SumProgramComputesExpectedAggregate) {
  // Ring of 6 vertices, 2 iterations: each vertex accumulates its
  // predecessor's seed twice; aggregate = sum of accumulators.
  constexpr int kN = 6;
  graph::Graph g = Ring(kN);
  VertexProgram program = MakeSumProgram(1, 2, /*noise_alpha=*/1e-12);
  RuntimeConfig config;
  config.block_size = 3;
  config.seed = 5;
  Runtime runtime(config, g, program);

  std::vector<mpc::BitVector> states;
  int64_t expected = 0;
  for (int v = 0; v < kN; v++) {
    uint64_t seed_value = 10 + v;
    states.push_back(mpc::WordToBits(seed_value, 16));  // accumulator starts 0
  }
  // After iteration 1's communicate + compute, each accumulator holds the
  // predecessor's seed; after iteration 2 it holds it twice... Actually the
  // final compute is the (iterations+1)-th: messages received `iterations`
  // times.
  for (int v = 0; v < kN; v++) {
    uint64_t pred_seed = 10 + ((v + kN - 1) % kN);
    expected += static_cast<int64_t>(2 * pred_seed);
  }

  RunMetrics metrics;
  int64_t result = runtime.Run(states, &metrics);
  EXPECT_EQ(result, expected);
  EXPECT_GT(metrics.total_bytes, 0u);
  EXPECT_GT(metrics.compute.seconds, 0.0);
  EXPECT_EQ(metrics.iterations, 2);
}

TEST(RuntimeTest, DeterministicForFixedSeed) {
  graph::Graph g = Ring(5);
  VertexProgram program = MakeSumProgram(1, 1, 1e-12);
  std::vector<mpc::BitVector> states;
  for (int v = 0; v < 5; v++) {
    states.push_back(mpc::WordToBits(3 + v, 16));
  }
  RuntimeConfig config;
  config.block_size = 3;
  config.seed = 9;
  Runtime a(config, g, program);
  Runtime b(config, g, program);
  EXPECT_EQ(a.Run(states, nullptr), b.Run(states, nullptr));
}

TEST(RuntimeTest, OutputNoiseIsApplied) {
  // With alpha = 0.9 the geometric noise is nonzero with high probability;
  // across seeds the outputs should vary around the true sum.
  graph::Graph g = Ring(4);
  VertexProgram program = MakeSumProgram(1, 1, /*noise_alpha=*/0.9);
  std::vector<mpc::BitVector> states;
  int64_t true_sum = 0;
  for (int v = 0; v < 4; v++) {
    states.push_back(mpc::WordToBits(5, 16));
    true_sum += 5;
  }
  int differing = 0;
  for (uint64_t seed = 1; seed <= 8; seed++) {
    RuntimeConfig config;
    config.block_size = 3;
    config.seed = seed;
    Runtime runtime(config, g, program);
    int64_t out = runtime.Run(states, nullptr);
    if (out != true_sum) {
      differing++;
    }
    EXPECT_LT(std::abs(out - true_sum), 200) << "seed " << seed;
  }
  EXPECT_GE(differing, 4);  // noise must actually perturb most runs
}

TEST(RuntimeTest, TreeAggregationMatchesSingleLevel) {
  constexpr int kN = 9;
  graph::Graph g = Ring(kN);
  VertexProgram program = MakeSumProgram(1, 1, 1e-12);
  std::vector<mpc::BitVector> states;
  for (int v = 0; v < kN; v++) {
    states.push_back(mpc::WordToBits(7 + v, 16));
  }
  RuntimeConfig flat;
  flat.block_size = 3;
  flat.seed = 4;
  RuntimeConfig tree = flat;
  tree.aggregation_fanout = 3;
  Runtime a(flat, g, program);
  Runtime b(tree, g, program);
  EXPECT_EQ(a.Run(states, nullptr), b.Run(states, nullptr));
}

TEST(RuntimeTest, DeepAggregationTreeMatchesSingleLevel) {
  // fanout = 2 with N = 11 forces intermediate combine levels:
  // 6 leaves -> 3 -> 2 -> root, exercising the general §3.6 tree.
  constexpr int kN = 11;
  graph::Graph g = Ring(kN);
  VertexProgram program = MakeSumProgram(1, 1, 1e-12);
  std::vector<mpc::BitVector> states;
  for (int v = 0; v < kN; v++) {
    states.push_back(mpc::WordToBits(3 + 2 * v, 16));
  }
  RuntimeConfig flat;
  flat.block_size = 3;
  flat.seed = 6;
  RuntimeConfig deep = flat;
  deep.aggregation_fanout = 2;
  Runtime a(flat, g, program);
  Runtime b(deep, g, program);
  EXPECT_EQ(a.Run(states, nullptr), b.Run(states, nullptr));
}

// Every AND gate an instance evaluates draws one triple per party, so in
// dealer mode a run consumes block_size x (S*n*(I+1) update circuits plus
// the aggregation's gates): aggregate_and_gates must count every stage of
// the tree, for every lane.
TEST(RuntimeTest, TriplesConsumedMatchAndGateCounts) {
  constexpr int kN = 9;
  constexpr int kIterations = 2;
  graph::Graph g = Ring(kN);
  VertexProgram program = MakeSumProgram(1, kIterations, 1e-12);
  std::vector<std::vector<mpc::BitVector>> lanes(3);
  for (int s = 0; s < 3; s++) {
    for (int v = 0; v < kN; v++) {
      lanes[s].push_back(mpc::WordToBits(5 + s + v, 16));
    }
  }
  for (int fanout : {0, 2, 3}) {
    RuntimeConfig config;
    config.block_size = 3;
    config.seed = 7;
    config.aggregation_fanout = fanout;
    config.ensemble_width = 3;
    Runtime runtime(config, g, program);
    for (size_t width : {1, 3}) {
      RunMetrics m;
      runtime.RunEnsemble({lanes.begin(), lanes.begin() + width}, &m);
      EXPECT_EQ(m.triples_consumed,
                config.block_size * (width * kN * (kIterations + 1) * m.update_and_gates +
                                     m.aggregate_and_gates))
          << "fanout " << fanout << ", S=" << width;
    }
  }
}

TEST(RuntimeTest, OtTriplesMatchDealerTriples) {
  constexpr int kN = 4;
  graph::Graph g = Ring(kN);
  VertexProgram program = MakeSumProgram(1, 1, 1e-12);
  std::vector<mpc::BitVector> states;
  for (int v = 0; v < kN; v++) {
    states.push_back(mpc::WordToBits(2 + v, 16));
  }
  RuntimeConfig dealer;
  dealer.block_size = 3;
  dealer.seed = 2;
  RuntimeConfig ot = dealer;
  ot.use_ot_triples = true;
  Runtime a(dealer, g, program);
  Runtime b(ot, g, program);
  int64_t dealer_result = a.Run(states, nullptr);
  int64_t ot_result = b.Run(states, nullptr);
  EXPECT_EQ(dealer_result, ot_result);
  // OT triple generation shows up as extra traffic.
  EXPECT_GT(b.network().TotalBytes(), a.network().TotalBytes());
}

TEST(RuntimeTest, EisenbergNoeEndToEndMatchesReference) {
  Rng rng(31);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 12;
  topo.core_size = 4;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  finance::WorkloadParams wp;
  wp.core_size = 4;
  finance::ShockParams shock;
  shock.shocked_banks = {0};
  finance::EnInstance instance = finance::MakeEnWorkload(g, wp, shock);

  finance::EnProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 4;
  params.noise_alpha = 1e-12;  // effectively no output noise
  VertexProgram program = finance::MakeEnProgram(params);

  RuntimeConfig config;
  config.block_size = 3;
  config.seed = 3;
  Runtime runtime(config, g, program);
  int64_t mpc_tds = runtime.Run(finance::MakeEnInitialStates(instance, params), nullptr);
  uint64_t reference_tds = finance::EnSolveFixed(instance, params);
  EXPECT_EQ(mpc_tds, static_cast<int64_t>(reference_tds));
}

TEST(RuntimeTest, EgjEndToEndMatchesReference) {
  Rng rng(32);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 10;
  topo.core_size = 4;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);
  finance::WorkloadParams wp;
  wp.core_size = 4;
  wp.threshold_ratio = 0.8;
  finance::ShockParams shock;
  shock.shocked_banks = {0, 1};
  finance::EgjInstance instance = finance::MakeEgjWorkload(g, wp, shock);

  finance::EgjProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = 3;
  params.noise_alpha = 1e-12;
  VertexProgram program = finance::MakeEgjProgram(params);

  RuntimeConfig config;
  config.block_size = 3;
  config.seed = 8;
  Runtime runtime(config, g, program);
  int64_t mpc_tds = runtime.Run(finance::MakeEgjInitialStates(instance, params), nullptr);
  uint64_t reference_tds = finance::EgjSolveFixed(instance, params);
  EXPECT_EQ(mpc_tds, static_cast<int64_t>(reference_tds));
}

TEST(RuntimeTest, MetricsBreakdownIsConsistent) {
  graph::Graph g = Ring(5);
  VertexProgram program = MakeSumProgram(1, 2, 1e-12);
  std::vector<mpc::BitVector> states(5, mpc::WordToBits(1, 16));
  RuntimeConfig config;
  config.block_size = 3;
  Runtime runtime(config, g, program);
  RunMetrics metrics;
  runtime.Run(states, &metrics);
  uint64_t phase_sum = metrics.init.bytes + metrics.compute.bytes + metrics.communicate.bytes +
                       metrics.aggregate.bytes;
  EXPECT_EQ(phase_sum, metrics.total_bytes);
  EXPECT_GT(metrics.update_and_gates, 0u);
  EXPECT_GT(metrics.aggregate_and_gates, 0u);
  EXPECT_NEAR(metrics.avg_bytes_per_node, static_cast<double>(metrics.total_bytes) / 5, 1e-6);
  EXPECT_FALSE(metrics.ToString().empty());
}

TEST(SetupTest, BlocksContainOwnerAndAreDistinct) {
  Rng rng(33);
  graph::Graph g = graph::GenerateErdosRenyi(20, 0.2, rng);
  SetupConfig config;
  config.num_nodes = 20;
  config.block_size = 5;
  config.message_bits = 8;
  WorkerPool pool(4);
  TrustedSetup setup = RunTrustedSetup(config, g, pool);
  ASSERT_EQ(setup.blocks.size(), 20u);
  for (int v = 0; v < 20; v++) {
    ASSERT_EQ(setup.blocks[v].size(), 5u);
    EXPECT_EQ(setup.blocks[v][0], v);
    for (size_t a = 0; a < 5; a++) {
      for (size_t b = a + 1; b < 5; b++) {
        EXPECT_NE(setup.blocks[v][a], setup.blocks[v][b]);
      }
    }
  }
  EXPECT_EQ(setup.aggregation_block.size(), 5u);
  // One certificate per directed edge; certificate keys must differ from
  // the members' raw identity keys (they are blinded).
  EXPECT_EQ(setup.edge_certificates.size(), static_cast<size_t>(g.num_edges()));
  for (const auto& [edge, cert] : setup.edge_certificates) {
    int j = edge.second;
    for (int m = 0; m < 5; m++) {
      int member = setup.blocks[j][m];
      EXPECT_NE(cert.keys[m][0].point, setup.node_keys[member].keys[0].pub.point);
    }
  }
}

TEST(SetupTest, NeighborKeysPerInSlot) {
  Rng rng(34);
  graph::Graph g = graph::GenerateErdosRenyi(15, 0.2, rng);
  SetupConfig config;
  config.num_nodes = 15;
  config.block_size = 4;
  config.message_bits = 6;
  WorkerPool pool(4);
  TrustedSetup setup = RunTrustedSetup(config, g, pool);
  for (int v = 0; v < 15; v++) {
    EXPECT_EQ(setup.neighbor_keys[v].size(), static_cast<size_t>(g.InDegree(v)));
  }
}

}  // namespace
}  // namespace dstress::core
