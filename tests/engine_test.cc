// Engine-layer tests: the RunSpec -> Engine -> RunReport API, the
// ExecutionMode names, and the two acceptance properties of the redesign:
//
//  (a) secure mode is a pure adapter — per-node traffic bytes (the fig4
//      probe quantity) and the released result are bit-identical to
//      driving core::Runtime directly with the same seed;
//  (b) cleartext mode reproduces the fixed-point reference results of the
//      EN and EGJ models exactly, and scales to a 10,000-vertex sweep in
//      test time.
#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include <string>

#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/finance/utility.h"
#include "src/finance/workload.h"
#include "src/graph/generators.h"
#include "src/programs/private_sum.h"
#include "tests/fidelity_digest.h"

namespace dstress::engine {
namespace {

graph::Graph Ring(int n) {
  graph::Graph g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g;
}

TopologySpec RingTopology(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < n; v++) {
    edges.emplace_back(v, (v + 1) % n);
  }
  return ExplicitTopology(n, std::move(edges));
}

// (a) The fig4-style traffic probe: an EN run through the engine must be
// byte-identical, per node, to the same run hand-wired onto core::Runtime.
TEST(EngineSecureModeTest, TrafficBitIdenticalToDirectRuntime) {
  Rng rng(31);
  graph::CorePeripheryParams topo;
  topo.num_vertices = 10;
  topo.core_size = 3;
  graph::Graph g = graph::GenerateCorePeriphery(topo, rng);

  finance::WorkloadParams workload;
  workload.core_size = 3;
  finance::ShockParams shock;
  shock.shocked_banks = {0};

  constexpr uint64_t kSeed = 5;
  constexpr int kIterations = 3;
  constexpr double kAlpha = 0.5;

  // The engine path.
  RunSpec spec;
  spec.graph = g;
  spec.model = ContagionModel::kEisenbergNoe;
  spec.workload = workload;
  spec.shock = shock;
  spec.noise_alpha = kAlpha;
  spec.iterations = kIterations;
  spec.block_size = 3;
  spec.seed = kSeed;
  Engine engine(spec);
  RunReport report = engine.Run();

  // The pre-redesign path: hand-assembled program + workload + runtime.
  finance::EnProgramParams params;
  params.degree_bound = g.MaxDegree();
  params.iterations = kIterations;
  params.noise_alpha = kAlpha;
  finance::EnInstance instance = finance::MakeEnWorkload(g, workload, shock);
  core::RuntimeConfig config;
  config.block_size = 3;
  config.seed = kSeed;
  core::Runtime runtime(config, g, finance::MakeEnProgram(params));
  core::RunMetrics direct_metrics;
  int64_t direct_released =
      runtime.Run(finance::MakeEnInitialStates(instance, params), &direct_metrics);

  EXPECT_EQ(report.released, direct_released);
  EXPECT_EQ(report.reference, finance::EnSolveFixed(instance, params));
  EXPECT_EQ(report.metrics.total_bytes, direct_metrics.total_bytes);
  ASSERT_EQ(engine.transport().num_nodes(), runtime.network().num_nodes());
  for (int v = 0; v < g.num_vertices(); v++) {
    net::TrafficStats via_engine = engine.transport().NodeStats(v);
    net::TrafficStats direct = runtime.network().NodeStats(v);
    EXPECT_EQ(via_engine.bytes_sent, direct.bytes_sent) << "node " << v;
    EXPECT_EQ(via_engine.bytes_received, direct.bytes_received) << "node " << v;
    EXPECT_EQ(via_engine.messages_sent, direct.messages_sent) << "node " << v;
  }
}

// The transport-redesign acceptance property: for one fixed RunSpec, a
// kSecure run over the TCP multi-process backend produces the same released
// figure and bit-identical per-node TrafficStats as the same spec over
// SimNetwork. The spec selects the wire by name only.
TEST(EngineSecureModeTest, TcpTransportBitIdenticalToSimNetwork) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(10, 3);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0};
  spec.noise_alpha = 0.5;
  spec.iterations = 2;
  spec.block_size = 3;
  spec.seed = 5;

  // Snapshot the sim run's stats, then destroy the engine: the TCP backend
  // forks its bank processes, which is cleanest while no worker-pool
  // threads from a previous run are alive (see tcp_network.h).
  RunReport sim_report;
  std::vector<net::TrafficStats> sim_stats;
  {
    spec.transport = net::SimTransportSpec();
    Engine sim_engine(spec);
    sim_report = sim_engine.Run();
    for (int v = 0; v < sim_engine.transport().num_nodes(); v++) {
      sim_stats.push_back(sim_engine.transport().NodeStats(v));
    }
  }

  spec.transport = net::TcpTransportSpec();
  Engine tcp_engine(spec);
  RunReport tcp_report = tcp_engine.Run();

  EXPECT_EQ(tcp_report.released, sim_report.released);
  EXPECT_EQ(tcp_report.metrics.total_bytes, sim_report.metrics.total_bytes);
  ASSERT_EQ(tcp_engine.transport().num_nodes(), static_cast<int>(sim_stats.size()));
  for (int v = 0; v < tcp_engine.transport().num_nodes(); v++) {
    net::TrafficStats tcp = tcp_engine.transport().NodeStats(v);
    const net::TrafficStats& sim = sim_stats[v];
    EXPECT_EQ(tcp.bytes_sent, sim.bytes_sent) << "node " << v;
    EXPECT_EQ(tcp.bytes_received, sim.bytes_received) << "node " << v;
    EXPECT_EQ(tcp.messages_sent, sim.messages_sent) << "node " << v;
    EXPECT_EQ(tcp.messages_received, sim.messages_received) << "node " << v;
  }
}

// A secure run's observable surface (tests/fidelity_digest.h): released
// figure, reference, iteration count, triples consumed, GMW rounds, and
// every node's TrafficStats.
std::string SecureDigest(const RunSpec& spec) {
  Engine engine(spec);
  RunReport report = engine.Run();
  FidelityDigest digest;
  return digest.Add(static_cast<uint64_t>(report.released))
      .Add(report.has_reference)
      .Add(report.reference)
      .Add(static_cast<uint64_t>(report.iterations))
      .Add(report.metrics.triples_consumed)
      .Add(report.metrics.update_rounds)
      .AddTraffic(engine.transport())
      .Hex();
}

// max_parallel_tasks 0 is one pool thread per hardware thread. At 1, the
// communicate step completes only if none of its tasks waits on another.
RunSpec SeedScheduleSpec(int fanout, int max_parallel_tasks) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(12, 3);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0};
  spec.noise_alpha = 0.5;
  spec.iterations = 2;
  spec.block_size = 4;
  spec.aggregation_fanout = fanout;
  spec.max_parallel_tasks = max_parallel_tasks;
  spec.seed = 5;
  return spec;
}

// Golden digests of the seed schedules — one task + one GmwParty per
// (vertex, member) role, one task per transfer role — captured before
// those schedules were retired, and equal there to the batched planes'.
// Tree aggregation (fanout 3) exercises the batched leaf/combine stages;
// fanout 0 the flat aggregation block.
constexpr char kTreeSeedDigest[] =
    "977fd26bb81f891c4bb6975dc3134b84508144bcb164190141c7f16a09d01374";
constexpr char kFlatSeedDigest[] =
    "0750bbe7cf5a26f801ea295657af54afe631e286f53a9261f115d36ff81c742a";

// The packed-share and transfer-engine acceptance property: the batched
// bitsliced MPC plane and the batched transfer plane release the same
// figure over bit-identical per-node TrafficStats — bytes AND message
// counts — as the seed schedules.
TEST(EngineSecureModeTest, BatchedPlanesMatchSeedScheduleDigests) {
  for (int threads : {0, 1}) {
    const std::string label = " sim threads=" + std::to_string(threads);
    ExpectGoldenDigest(SecureDigest(SeedScheduleSpec(3, threads)), kTreeSeedDigest,
                       "fanout=3" + label);
    ExpectGoldenDigest(SecureDigest(SeedScheduleSpec(0, threads)), kFlatSeedDigest,
                       "fanout=0" + label);
  }
}

// The same contract over the tcp wire: one digest for both transports.
TEST(EngineSecureModeTest, BatchedPlanesMatchSeedScheduleDigestOverTcp) {
  for (int threads : {0, 1}) {
    RunSpec spec = SeedScheduleSpec(3, threads);
    spec.transport = net::TcpTransportSpec();
    ExpectGoldenDigest(SecureDigest(spec), kTreeSeedDigest,
                       "fanout=3 tcp threads=" + std::to_string(threads));
  }
}

// Layer batching is what keeps GMW round count equal to the circuit's AND
// depth (the paper's linearity argument); the metrics surface both so any
// regression in the batched exchange schedule fails loudly.
TEST(EngineSecureModeTest, MpcRoundsEqualUpdateCircuitAndDepth) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(8, 3);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0};
  spec.noise_alpha = 0.5;
  spec.iterations = 1;
  spec.block_size = 3;
  spec.seed = 2;
  RunReport report = Engine(spec).Run();
  EXPECT_GT(report.metrics.update_and_depth, 0u);
  EXPECT_EQ(report.metrics.update_rounds, report.metrics.update_and_depth);
  EXPECT_GT(report.metrics.triples_consumed, 0u);
}

// (b) Cleartext mode evaluates the same circuits the MPC would, so with
// noise disabled it must land exactly on the fixed-point references.
TEST(EngineCleartextModeTest, MatchesEnFixedPointReference) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(12, 4);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0, 1};
  spec.noise_alpha = 1e-12;  // effectively no output noise
  spec.iterations = 4;
  spec.seed = 3;
  spec.mode = ExecutionMode::kCleartextFast;
  RunReport report = Engine(spec).Run();
  ASSERT_TRUE(report.has_reference);
  EXPECT_EQ(report.released, static_cast<int64_t>(report.reference));
  EXPECT_GT(report.metrics.total_bytes, 0u);
}

TEST(EngineCleartextModeTest, MatchesEgjFixedPointReference) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(10, 4);
  spec.model = ContagionModel::kElliottGolubJackson;
  spec.shock.shocked_banks = {0, 1};
  spec.noise_alpha = 1e-12;
  spec.iterations = 3;
  spec.seed = 8;
  spec.mode = ExecutionMode::kCleartextFast;
  RunReport report = Engine(spec).Run();
  ASSERT_TRUE(report.has_reference);
  EXPECT_EQ(report.released, static_cast<int64_t>(report.reference));
}

// Both modes agree on the same spec when the output noise is disabled.
TEST(EngineCleartextModeTest, AgreesWithSecureModeOnSameSpec) {
  RunSpec spec;
  spec.topology = RingTopology(6);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {2};
  spec.noise_alpha = 1e-12;
  spec.iterations = 3;
  spec.block_size = 3;
  spec.seed = 11;

  spec.mode = ExecutionMode::kSecure;
  RunReport secure = Engine(spec).Run();
  spec.mode = ExecutionMode::kCleartextFast;
  RunReport cleartext = Engine(spec).Run();
  EXPECT_EQ(secure.released, cleartext.released);
  EXPECT_EQ(secure.reference, cleartext.reference);
  // The fast path skips the crypto: traffic shrinks by orders of magnitude.
  EXPECT_LT(cleartext.metrics.total_bytes, secure.metrics.total_bytes / 100);
}

// The cleartext gather mirrors the secure §3.6 aggregation tree when a
// fanout is set: the released figure is unchanged (word sums are
// associative) while the root stops funneling every state — with N=24 and
// fanout 4 the root receives its own leaf group plus ceil(24/4)=6 partials
// instead of 24 states.
TEST(EngineCleartextModeTest, TreeAggregationMatchesFlatAndSpreadsGather) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(24, 5);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0, 1};
  spec.noise_alpha = 1e-12;
  spec.iterations = 3;
  spec.seed = 21;
  spec.mode = ExecutionMode::kCleartextFast;

  Engine flat_engine(spec);
  RunReport flat = flat_engine.Run();

  spec.aggregation_fanout = 4;
  Engine tree_engine(spec);
  RunReport tree = tree_engine.Run();

  EXPECT_EQ(tree.released, flat.released);
  ASSERT_TRUE(tree.has_reference);
  EXPECT_EQ(tree.released, static_cast<int64_t>(tree.reference));
  // The root (node 0) receives strictly fewer messages under the tree.
  EXPECT_LT(tree_engine.transport().NodeStats(0).messages_received,
            flat_engine.transport().NodeStats(0).messages_received);
  // And other nodes now share the gather work.
  uint64_t non_root_received = 0;
  for (int v = 1; v < 24; v++) {
    non_root_received += tree_engine.transport().NodeStats(v).messages_received;
  }
  EXPECT_GT(non_root_received, 0u);
}

// The ROADMAP's headline workload for the fast path: a sweep-scale run at
// N = 10,000 vertices completes through the public API in test time.
TEST(EngineCleartextModeTest, SweepAtTenThousandVertices) {
  constexpr int kN = 10000;
  RunSpec spec;
  spec.topology = RingTopology(kN);
  spec.model = ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0, 1, 2, 3, 4};
  spec.noise_alpha = 1e-12;
  spec.seed = 17;
  spec.mode = ExecutionMode::kCleartextFast;
  Engine engine(spec);
  EXPECT_EQ(engine.iterations(), AutoIterations(kN));  // 14 rounds
  RunReport report = engine.Run();
  ASSERT_TRUE(report.has_reference);
  EXPECT_EQ(report.released, static_cast<int64_t>(report.reference));
  // Traffic crossed the metered transport: one L-bit word per edge per
  // iteration plus the aggregation gather.
  EXPECT_GT(report.metrics.communicate.bytes, 0u);
  EXPECT_GT(report.metrics.aggregate.bytes, 0u);
}

TEST(EngineTest, ReusableAndDeterministicForFixedSeed) {
  RunSpec spec;
  spec.topology = CorePeripheryTopology(10, 3);
  spec.shock.shocked_banks = {0};
  spec.iterations = 2;
  spec.block_size = 3;
  spec.seed = 9;
  Engine a(spec);
  int64_t first = a.Run().released;
  EXPECT_EQ(first, a.Run().released);  // engine reusable
  Engine b(spec);
  EXPECT_EQ(first, b.Run().released);  // deterministic across instances
}

// A degree bound below the graph's maximum degree aborts in the
// constructor, before any lane compiles, with a message naming both.
TEST(EngineDeathTest, DegreeBoundBelowMaxDegreeFailsFast) {
  graph::Graph hub(5);
  for (int v = 1; v < 5; v++) {
    hub.AddEdge(0, v);
    hub.AddEdge(v, 0);
  }
  ASSERT_EQ(hub.MaxDegree(), 4);
  for (ContagionModel model :
       {ContagionModel::kEisenbergNoe, ContagionModel::kElliottGolubJackson}) {
    RunSpec spec;
    spec.graph = hub;
    spec.model = model;
    spec.degree_bound = 3;
    spec.mode = ExecutionMode::kCleartextFast;
    EXPECT_DEATH(Engine{spec}, "degree_bound 3 is below the graph's maximum degree 4");
  }
}

TEST(EngineTest, CustomProgramRunsThroughBothModes) {
  graph::Graph g = Ring(6);
  programs::PrivateSumParams params;
  params.degree_bound = 1;
  params.noise.alpha = 1e-12;
  params.noise.magnitude_bits = 8;
  params.noise.threshold_bits = 10;
  std::vector<uint32_t> values = {5, 10, 15, 20, 25, 30};

  RunSpec spec;
  spec.graph = g;
  spec.model = ContagionModel::kCustom;
  spec.custom_program = programs::BuildPrivateSumProgram(params);
  spec.custom_states = programs::MakePrivateSumStates(values, params.value_bits);
  spec.block_size = 3;
  spec.seed = 4;
  for (ExecutionMode mode : {ExecutionMode::kSecure, ExecutionMode::kCleartextFast}) {
    spec.mode = mode;
    RunReport report = Engine(spec).Run();
    EXPECT_EQ(report.released, programs::PlaintextSum(values, params.aggregate_bits))
        << ExecutionModeName(mode);
    EXPECT_FALSE(report.has_reference);
  }
}

TEST(EngineTest, AutoIterationsIsCeilLog2) {
  EXPECT_EQ(AutoIterations(50), 6);  // 2^6 = 64 >= 50
  EXPECT_EQ(AutoIterations(64), 6);
  EXPECT_EQ(AutoIterations(65), 7);
  EXPECT_EQ(AutoIterations(2), 1);
}

TEST(ExecutionModeTest, NamesRoundTrip) {
  EXPECT_STREQ(ExecutionModeName(ExecutionMode::kSecure), "secure");
  EXPECT_STREQ(ExecutionModeName(ExecutionMode::kCleartextFast), "cleartext");
  EXPECT_EQ(ExecutionModeFromName("secure"), ExecutionMode::kSecure);
  EXPECT_EQ(ExecutionModeFromName("cleartext"), ExecutionMode::kCleartextFast);
  EXPECT_FALSE(ExecutionModeFromName("tls").has_value());
}

}  // namespace
}  // namespace dstress::engine
