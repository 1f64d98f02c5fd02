// Flat-arena cleartext graph plane tests (src/graphplane + the arena
// backend in src/engine/arena_cleartext_backend.cc).
//
// Two halves:
//
//  1. A golden-digest corpus (tests/fidelity_digest.h) pinning the arena
//     plane's released figures, cleartext references, per-vertex final
//     states and per-node TrafficStats over random topologies (N in
//     {1, 7, 64, 1000}), EN / EGJ / custom vertex programs, flat and tree
//     aggregation, and ensemble widths W in {1, 3, 64}. Every digest was
//     captured from the retired per-vertex container plane and checked
//     equal to the arena plane's before that plane was deleted.
//
//  2. Unit tests driving graphplane::GraphPlane directly. PackStates must
//     round-trip every lane at any state width, stride and pool size. Frontier: words
//     deactivate when their inputs stop changing, reactivate when a changed
//     message is delivered, every edge is still metered every iteration,
//     and W > 1 scenario lanes converge independently without cross-lane
//     contamination. Plus the engine-level early-exit A/B: stopping at
//     AllConverged releases the same figure as running all I iterations.

#include "src/graphplane/plane.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/common/rng.h"
#include "src/core/vertex_program.h"
#include "src/core/worker_pool.h"
#include "src/engine/engine.h"
#include "src/graph/graph.h"
#include "src/net/sim_network.h"
#include "src/programs/private_sum.h"
#include "src/programs/reachability.h"
#include "tests/fidelity_digest.h"

namespace dstress {
namespace {

using engine::ContagionModel;
using engine::Engine;
using engine::ExecutionMode;
using engine::RunReport;
using engine::RunSpec;

// --- golden-digest corpus ---------------------------------------------------

// One solo run's observable surface: released figure, reference, iteration
// count, per-vertex final states and per-node traffic.
std::string SoloDigest(const RunSpec& spec) {
  Engine engine(spec);
  RunReport report = engine.Run();
  FidelityDigest digest;
  digest.Add(static_cast<uint64_t>(report.released))
      .Add(report.has_reference)
      .Add(report.reference)
      .Add(static_cast<uint64_t>(report.iterations));
  for (const mpc::BitVector& state : engine.FinalStates()) {
    digest.AddBits(state);
  }
  return digest.AddTraffic(engine.transport()).Hex();
}

// An ensemble's per-lane figures and references plus per-node traffic.
std::string EnsembleDigest(const RunSpec& spec) {
  Engine engine(spec);
  ensemble::EnsembleReport report = engine.RunEnsemble();
  FidelityDigest digest;
  digest.Add(report.scenarios.size()).Add(static_cast<uint64_t>(report.iterations));
  for (const ensemble::ScenarioResult& lane : report.scenarios) {
    digest.Add(static_cast<uint64_t>(lane.released)).Add(lane.has_reference).Add(lane.reference);
  }
  return digest.AddTraffic(engine.transport()).Hex();
}

void ExpectSoloGolden(const RunSpec& spec, const char* golden, const std::string& label) {
  ExpectGoldenDigest(SoloDigest(spec), golden, label);
}

void ExpectEnsembleGolden(const RunSpec& spec, const char* golden, const std::string& label) {
  ExpectGoldenDigest(EnsembleDigest(spec), golden, label);
}

RunSpec FinanceSpec(ContagionModel model, int n, uint64_t seed) {
  RunSpec spec;
  spec.mode = ExecutionMode::kCleartextFast;
  spec.model = model;
  if (n == 1) {
    spec.topology = engine::ExplicitTopology(1, {});
    spec.degree_bound = 1;
  } else {
    spec.topology = engine::ScaleFreeTopology(n, 2);
    spec.topology.degree_cap = 4;
  }
  spec.shock.shocked_banks = {0};
  spec.seed = seed;
  return spec;
}

std::string FinanceLabel(ContagionModel model, int n, uint64_t seed) {
  return std::string(model == ContagionModel::kEisenbergNoe ? "en" : "egj") +
         " n=" + std::to_string(n) + " seed=" + std::to_string(seed);
}

struct FinanceCase {
  ContagionModel model;
  int n;
  uint64_t seed;
  const char* golden;
};

constexpr ContagionModel kEn = ContagionModel::kEisenbergNoe;
constexpr ContagionModel kEgj = ContagionModel::kElliottGolubJackson;

TEST(GraphPlaneDigestTest, FinanceModelsAcrossSizesAndSeeds) {
  const FinanceCase cases[] = {
      {kEn, 1, 1, "d955bbd71cffbc2793c493b62bcf5267aa088b9b71c06019a84017659ec098b4"},
      {kEn, 1, 23, "a9bafc21cdcff3f6fe2f23178a9ae96a200bb1d256f5859734b9313e1606e151"},
      {kEn, 1, 777, "5c89dd7d23b2a26c3eb0dd919bce2ba4a7965d902ae0b58d933382d6135d3ce2"},
      {kEn, 7, 1, "552d7df880c332f7f6bd107e34da7077f3e5c4f6d762ae9b12a60dd97d898eba"},
      {kEn, 7, 23, "4549b3216ccf14a94cfc16743ed606f4f101483734337c3cffa9270822ba6bfb"},
      {kEn, 7, 777, "f3f479523be0f09490208b9e74594f399add76315f0fb2dd1e62fd778788e4cd"},
      {kEn, 64, 1, "41e18fe254441c6f16f4fe508e34d7aae8d8b713bc0b7ebecfef1c7e786f65b6"},
      {kEn, 64, 23, "5bbebe9b6d44c59a49775c10ff79e02e5b57fa8ac40ad72654265de761f33134"},
      {kEn, 64, 777, "1a86e5954c26aa6763ebbdc8f0497623035385d3b7f280925285dee8ab683923"},
      {kEgj, 1, 1, "2ac6d5449ddde007dfc81de90e4f9e0c255714d48ad6a0ad838c2e908a9add1e"},
      {kEgj, 1, 23, "0b5889337251035cc38262329e0167bc60259d2183da53ccd5e2fb2e51ec4b4c"},
      {kEgj, 1, 777, "6536d1afdfededfaa155d1c44568ef7f28bfb3263efb3a0880f2691ba308cf1f"},
      {kEgj, 7, 1, "46f4214bc778177050a98bf547884d09afab59e5d4528d5a7e8cd4e0ffd45d53"},
      {kEgj, 7, 23, "0dfa13b2212a1ac5adb6bfebc8f375aee3a090dff3133641aec4af3060ca103b"},
      {kEgj, 7, 777, "cc8fa78aefc1d77a4879218ef3b19608501579e7e731a81e4464b14915a5a504"},
      {kEgj, 64, 1, "bcad226625073a15331f4a0ca861b84917ce9f0c13f90cfb4e97874f6874610a"},
      {kEgj, 64, 23, "c6b9ebfe3611e6c6e91ce022c0f2824f88ba81d696b76b7c0e95b81f5a981480"},
      {kEgj, 64, 777, "ef73293bb21341d07e82184ef22cb6ba36b18d96e4bf48a36825407b0c9d6ab2"},
  };
  for (const FinanceCase& c : cases) {
    ExpectSoloGolden(FinanceSpec(c.model, c.n, c.seed), c.golden,
                     FinanceLabel(c.model, c.n, c.seed));
  }
}

TEST(GraphPlaneDigestTest, ThousandVertexSweep) {
  ExpectSoloGolden(FinanceSpec(kEn, 1000, 4),
                   "9683404807783f63624626d33015552e2d67c558bfdc6ef7a1185efc06c067ed", "en n=1000");
  ExpectSoloGolden(FinanceSpec(kEgj, 1000, 4),
                   "689faa658d789f4178b7377b9e01c417cc4b28c77767f7c0b70cd30edf12fd86",
                   "egj n=1000");
}

// Tree aggregation (aggregation_fanout > 1) pins the arena backend's
// gather-tree traffic simulation.
TEST(GraphPlaneDigestTest, TreeAggregation) {
  const struct {
    int fanout;
    const char* golden;
  } cases[] = {
      {2, "3a4d34553e29c24d565cf0b83ba2d268419f80ca3a94282b84b2d88c5aafb62c"},
      {4, "47e3418dd6b3a348344fdc3e02ed690f3e234575da745b719127f6b9d09366ac"},
      {8, "6aacac2d341cdf8be698b20b1106fcc79af14c7dc4da4423009d2075f1522195"},
  };
  for (const auto& c : cases) {
    RunSpec spec = FinanceSpec(kEn, 64, 9);
    spec.aggregation_fanout = c.fanout;
    ExpectSoloGolden(spec, c.golden, "fanout=" + std::to_string(c.fanout));
  }
  RunSpec odd = FinanceSpec(kEgj, 7, 5);
  odd.aggregation_fanout = 3;
  ExpectSoloGolden(odd, "ab8ee73277fd6fde902c1a690b50425f64132993c68e257f1ffa30b587147343",
                   "egj fanout=3");
}

// Counts every message the transport carries literally. Attaching it makes
// the transport refuse bulk metering, so the run takes the literal-send
// fallback of every phase.
class MessageCounter : public net::NetworkObserver {
 public:
  void OnSend(net::NodeId, net::NodeId, net::SessionId, const Bytes&) override { sends_++; }
  void OnRecv(net::NodeId, net::NodeId, net::SessionId, const Bytes&) override {}
  uint64_t sends() const { return sends_; }

 private:
  std::atomic<uint64_t> sends_{0};
};

uint64_t MessagesSent(const net::Transport& net) {
  uint64_t total = 0;
  for (int v = 0; v < net.num_nodes(); v++) {
    total += net.NodeStats(v).messages_sent;
  }
  return total;
}

// The literal tree gather (observer attached, or a real wire) releases the
// bulk-metered run's figures over the same per-node traffic, solo and at
// three lanes.
TEST(GraphPlaneLiteralTest, TreeGatherMatchesBulkMetering) {
  for (int width : {1, 3}) {
    RunSpec spec = FinanceSpec(kEn, 40, 11);
    spec.aggregation_fanout = 3;
    if (width > 1) {
      spec.ensemble.emplace();
      for (int s = 0; s < width; s++) {
        ensemble::Scenario sc;
        sc.shock.shocked_banks = {s};
        spec.ensemble->scenarios.push_back(sc);
      }
    }
    auto run = [&](Engine& engine) {
      if (width == 1) {
        return std::vector<int64_t>{engine.Run().released};
      }
      std::vector<int64_t> figures;
      for (const ensemble::ScenarioResult& lane : engine.RunEnsemble().scenarios) {
        figures.push_back(lane.released);
      }
      return figures;
    };
    Engine metered(spec);
    Engine literal(spec);
    MessageCounter counter;
    literal.AttachObserver(&counter);
    EXPECT_EQ(run(literal), run(metered)) << "W=" << width;
    EXPECT_EQ(counter.sends(), MessagesSent(literal.transport())) << "W=" << width;
    for (int v = 0; v < spec.topology.num_vertices; v++) {
      net::TrafficStats a = literal.transport().NodeStats(v);
      net::TrafficStats b = metered.transport().NodeStats(v);
      EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "W=" << width << " node " << v;
      EXPECT_EQ(a.bytes_received, b.bytes_received) << "W=" << width << " node " << v;
      EXPECT_EQ(a.messages_sent, b.messages_sent) << "W=" << width << " node " << v;
      EXPECT_EQ(a.messages_received, b.messages_received) << "W=" << width << " node " << v;
    }
  }
}

TEST(GraphPlaneDigestTest, CustomPrograms) {
  const struct {
    int n;
    const char* sum_golden;
    const char* reach_golden;
  } cases[] = {
      {7, "8a2d70638214c85357e8ff4f643369d4a9ec6563b3ee28bd3e90b20c89aa7ce7",
       "cf6b4b6838674a0a6c100ca7451e128956bfb9b51ca94f6d749b06dbb7d8a771"},
      {64, "299e9c692830580346fe94e729b38b5264d08bf99067898358703c56fb7f4807",
       "8068a7375f5f7f9f4296841af565cad08f8768c01f3942977d040d373eb891b1"},
  };
  for (const auto& c : cases) {
    const int n = c.n;
    Rng rng(static_cast<uint64_t>(n) * 31);
    graph::Graph g = graph::GenerateScaleFree(n, 2, rng);

    programs::PrivateSumParams sum_params;
    sum_params.degree_bound = std::max(1, g.MaxDegree());
    sum_params.noise.alpha = 1e-12;
    sum_params.noise.magnitude_bits = 8;
    sum_params.noise.threshold_bits = 10;
    std::vector<uint32_t> values;
    for (int v = 0; v < n; v++) {
      values.push_back(static_cast<uint32_t>(100 + 7 * v));
    }
    RunSpec spec;
    spec.graph = g;
    spec.mode = ExecutionMode::kCleartextFast;
    spec.model = ContagionModel::kCustom;
    spec.custom_program = programs::BuildPrivateSumProgram(sum_params);
    spec.custom_states = programs::MakePrivateSumStates(values, sum_params.value_bits);
    spec.seed = static_cast<uint64_t>(n);
    ExpectSoloGolden(spec, c.sum_golden, "private_sum n=" + std::to_string(n));

    programs::ReachabilityParams reach_params;
    reach_params.degree_bound = std::max(1, g.MaxDegree());
    reach_params.hops = 3;
    reach_params.noise.alpha = 1e-12;
    reach_params.noise.magnitude_bits = 8;
    reach_params.noise.threshold_bits = 10;
    RunSpec reach;
    reach.graph = g;
    reach.mode = ExecutionMode::kCleartextFast;
    reach.model = ContagionModel::kCustom;
    reach.custom_program = programs::BuildReachabilityProgram(reach_params);
    reach.custom_states = programs::MakeReachabilityStates(n, {0});
    reach.seed = static_cast<uint64_t>(n) + 1;
    ExpectSoloGolden(reach, c.reach_golden, "reachability n=" + std::to_string(n));
  }
}

// Ensemble lanes: per-scenario figures and per-node traffic.
TEST(GraphPlaneDigestTest, EnsembleWidths) {
  // W = 1 (degenerate lane plane) and W = 3 (explicit scenarios).
  const struct {
    int width;
    const char* golden;
  } cases[] = {
      {1, "11ae899932e0f710376eb4e8e21dbaf0a33d7f756df9fafe7a57459c0ebcc525"},
      {3, "8665b242ee319aedfa24ed658f715d4a8a3c4f3e1fa607248f09b222dc057864"},
  };
  for (const auto& c : cases) {
    RunSpec spec = FinanceSpec(kEn, 40, 11);
    spec.ensemble.emplace();
    for (int s = 0; s < c.width; s++) {
      ensemble::Scenario sc;
      sc.shock.shocked_banks = {s};
      spec.ensemble->scenarios.push_back(sc);
    }
    ExpectEnsembleGolden(spec, c.golden, "ensemble W=" + std::to_string(c.width));
  }
  // W = 64: a full word of Monte Carlo lanes.
  RunSpec spec = FinanceSpec(kEn, 40, 11);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 9;
  spec.ensemble->banks_per_draw = 2;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.6;
  ExpectEnsembleGolden(spec, "17e375de2870266c165a755d9e723a53613a9a7e1ab60714e758b3c5a6c18d7c",
                       "ensemble W=64");
}

// --- frontier semantics -----------------------------------------------------

// OR-propagation: new_state = state | (OR of in-messages), out-message =
// the *pre-update* state. Monotone, so convergence is observable, and the
// one-iteration emission lag makes activation timing easy to pin down.
core::VertexProgram PropagateProgram(int bits, int degree_bound) {
  core::VertexProgram program;
  program.state_bits = bits;
  program.message_bits = bits;
  program.degree_bound = degree_bound;
  program.iterations = 8;
  program.aggregate_bits = 16;
  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                            std::vector<circuit::Word>* out_msgs) {
    circuit::Word acc = state;
    for (const circuit::Word& m : in_msgs) {
      for (size_t i = 0; i < acc.size(); i++) {
        acc[i] = b.Or(acc[i], m[i]);
      }
    }
    *new_state = acc;
    out_msgs->assign(in_msgs.size(), state);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(state, 16);
  };
  return program;
}

TEST(GraphPlaneFrontierTest, WordsDeactivateAndReactivateOnDelivery) {
  // 130 vertices = 3 lane words; one edge crossing from word 0 to word 1.
  const int n = 130;
  graph::Graph g(n);
  g.AddEdge(0, 100);
  core::VertexProgram program = PropagateProgram(4, 1);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::EvalPlan plan(update);
  core::WorkerPool pool(2);
  net::SimNetwork net(n);
  graphplane::GraphPlane plane(g, program, plan, &pool, &net, {});

  plane.Reset();
  std::vector<mpc::BitVector> states(n, mpc::BitVector(4, 0));
  states[0] = {1, 0, 1, 0};  // 5
  plane.PackStates({states}, 0);

  // After Reset everything is active.
  EXPECT_EQ(plane.ActiveWords(), 3u);

  // Iteration 1: all 3 words evaluate; only vertex 0's out-message changes
  // (⊥ -> 5), so only the word holding vertex 100 stays active.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.ActiveWords(), 1u);
  EXPECT_FALSE(plane.AllConverged());
  EXPECT_EQ(plane.stats().words_evaluated, 3u);
  EXPECT_EQ(plane.stats().words_skipped, 0u);
  // Delivered but not yet evaluated: vertex 100 still holds its old state.
  EXPECT_EQ(plane.VertexState(100, 0), mpc::BitVector(4, 0));

  // Iteration 2: only word 1 evaluates (the other two are skipped); vertex
  // 100 absorbs the message, so its word stays active for one more check.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 4u);
  EXPECT_EQ(plane.stats().words_skipped, 2u);
  EXPECT_EQ(plane.VertexState(100, 0), states[0]);
  EXPECT_EQ(plane.ActiveWords(), 1u);

  // Iteration 3: vertex 100 re-evaluates to a fixed point; frontier drains.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 5u);
  EXPECT_EQ(plane.stats().words_skipped, 4u);
  EXPECT_EQ(plane.ActiveWords(), 0u);
  EXPECT_TRUE(plane.AllConverged());

  // A converged iteration evaluates nothing — but still meters every edge:
  // traffic is per-iteration regardless of the frontier.
  plane.ComputeStep();
  plane.CommunicateStep();
  EXPECT_EQ(plane.stats().words_evaluated, 5u);
  EXPECT_EQ(plane.stats().words_skipped, 7u);
  EXPECT_EQ(plane.stats().iterations, 4u);
  EXPECT_TRUE(plane.stats().bulk_metered);
  net::TrafficStats sender = net.NodeStats(0);
  net::TrafficStats receiver = net.NodeStats(100);
  EXPECT_EQ(sender.messages_sent, 4u);  // one per iteration, frontier or not
  EXPECT_EQ(receiver.messages_received, 4u);
  EXPECT_EQ(sender.bytes_sent, 4u);  // 4-bit payload -> 1 byte per message

  // States are untouched by the converged rounds.
  EXPECT_EQ(plane.VertexState(0, 0), states[0]);
  EXPECT_EQ(plane.VertexState(100, 0), states[0]);
  EXPECT_EQ(plane.VertexState(64, 0), mpc::BitVector(4, 0));
}

TEST(GraphPlaneFrontierTest, EnsembleLanesConvergeIndependently) {
  // Chain 0 -> 1 -> 2 with three scenario lanes: lane s seeds vertex s with
  // 7. Lane 0 needs the full two-hop propagation, lane 2 is converged from
  // the start — the shared frontier must keep iterating for the slowest
  // lane without disturbing the finished ones.
  const int n = 3;
  const int kScenarios = 3;
  const int kStride = 4;
  graph::Graph g(n);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  core::VertexProgram program = PropagateProgram(4, 1);
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::EvalPlan plan(update);
  core::WorkerPool pool(2);
  net::SimNetwork net(n);
  graphplane::GraphPlane::Options options;
  options.num_scenarios = kScenarios;
  options.stride = kStride;
  graphplane::GraphPlane plane(g, program, plan, &pool, &net, options);

  plane.Reset();
  std::vector<std::vector<mpc::BitVector>> lanes(kScenarios,
                                                 std::vector<mpc::BitVector>(n, {0, 0, 0, 0}));
  for (int s = 0; s < kScenarios; s++) {
    lanes[static_cast<size_t>(s)][static_cast<size_t>(s)] = {1, 1, 1, 0};  // 7
  }
  plane.PackStates(lanes, 0);

  int rounds = 0;
  while (!plane.AllConverged() && rounds < 8) {
    plane.ComputeStep();
    plane.CommunicateStep();
    rounds++;
  }
  EXPECT_TRUE(plane.AllConverged());
  // Lane 0's value crosses two edges with the one-iteration emission lag;
  // the word must have stayed active well past lane 2's instant convergence.
  EXPECT_GE(rounds, 4);

  mpc::BitVector seven = {1, 1, 1, 0};
  mpc::BitVector zero(4, 0);
  // Lane 0: seeded at vertex 0, reaches everyone downstream.
  EXPECT_EQ(plane.VertexState(0, 0), seven);
  EXPECT_EQ(plane.VertexState(1, 0), seven);
  EXPECT_EQ(plane.VertexState(2, 0), seven);
  // Lane 1: seeded at vertex 1 — vertex 0 must stay clean (no upstream or
  // cross-lane leakage).
  EXPECT_EQ(plane.VertexState(0, 1), zero);
  EXPECT_EQ(plane.VertexState(1, 1), seven);
  EXPECT_EQ(plane.VertexState(2, 1), seven);
  // Lane 2: seeded at the sink, nothing propagates.
  EXPECT_EQ(plane.VertexState(0, 2), zero);
  EXPECT_EQ(plane.VertexState(1, 2), zero);
  EXPECT_EQ(plane.VertexState(2, 2), seven);

  // Per-lane contribution sums over the final states: 3 lanes, vertex-major
  // reduction, garbage lanes (s = 3) excluded by the valid mask.
  circuit::Circuit contribution = core::BuildAggregateCircuit(program, 1, /*with_noise=*/false);
  circuit::EvalPlan contribution_plan(contribution);
  std::vector<uint64_t> sums =
      plane.ScenarioSums(plane.EvalOverStates(contribution_plan), program.aggregate_bits);
  ASSERT_EQ(sums.size(), static_cast<size_t>(kScenarios));
  EXPECT_EQ(sums[0], 21u);  // 7 + 7 + 7
  EXPECT_EQ(sums[1], 14u);  // 0 + 7 + 7
  EXPECT_EQ(sums[2], 7u);   // 0 + 0 + 7
}

// PackStates packs blocks of 64 lanes x 64 state rows on the pool, 16
// lane words per task, gathering bit 0 of 8 state bytes at a time: every
// lane of every vertex must read back bit 0 of each of its state bytes at
// widths below, at and above one block (with and without a partial 8-byte
// group, and EN's D=8 width with its 48-row last block), at solo and
// ensemble strides, with a short last word, from an offset into the lane
// list, on pools of 1 and 4 threads, and at every stride for a vertex
// count whose words span several tasks, the last one partial. State bytes
// are random, not just 0 or 1. Lanes past S in a vertex's lane group pack
// as zero.
TEST(GraphPlanePackTest, PackStatesRoundTripsEveryWidthAndStride) {
  Rng rng(5);
  const struct {
    int scenarios;
    int stride;
    int n;  // n * stride / 64 > 16 words
  } shapes[] = {{1, 1, 2100}, {3, 4, 530}, {64, 64, 70}};
  for (int threads : {1, 4}) {
    core::WorkerPool pool(threads);
    for (int bits : {5, 13, 64, 77, 130, 304}) {
      core::VertexProgram program = PropagateProgram(bits, 1);
      circuit::Circuit update = core::BuildUpdateCircuit(program);
      circuit::EvalPlan plan(update);
      for (const auto& shape : shapes) {
        const int n = shape.n;
        graph::Graph g(n);
        g.AddEdge(0, 1);
        net::SimNetwork net(n);
        graphplane::GraphPlane::Options options;
        options.num_scenarios = shape.scenarios;
        options.stride = shape.stride;
        graphplane::GraphPlane plane(g, program, plan, &pool, &net, options);
        const size_t first = 1;  // lane 0 of the list belongs to another chunk
        std::vector<std::vector<mpc::BitVector>> lanes(first + shape.scenarios);
        for (auto& states : lanes) {
          for (int v = 0; v < n; v++) {
            mpc::BitVector state(static_cast<size_t>(bits));
            for (auto& byte : state) {
              byte = static_cast<uint8_t>(rng.Next());
            }
            states.push_back(std::move(state));
          }
        }
        plane.Reset();
        plane.PackStates(lanes, first);
        for (int s = 0; s < shape.scenarios; s++) {
          for (int v = 0; v < n; v++) {
            mpc::BitVector expected = lanes[first + s][static_cast<size_t>(v)];
            for (auto& byte : expected) {
              byte &= 1;
            }
            ASSERT_EQ(plane.VertexState(v, s), expected)
                << "threads " << threads << " bits " << bits << " lanes " << shape.scenarios
                << " n " << n << " vertex " << v << " lane " << s;
          }
        }
        for (int r = 0; shape.stride > shape.scenarios && r < bits; r++) {
          for (int v = 0; v < n; v++) {
            ASSERT_EQ(plane.StateLaneGroup(static_cast<size_t>(r), v, shape.stride) >>
                          shape.scenarios,
                      0u)
                << "threads " << threads << " bits " << bits << " row " << r << " vertex "
                << v;
          }
        }
      }
    }
  }
}

// Engine-level early-exit A/B: breaking out of the iteration loop once the
// frontier drains must release the same figure and final states as running
// every scheduled iteration (the skipped rounds are figure-identical
// no-ops) — only the traffic shrinks.
TEST(GraphPlaneFrontierTest, EarlyExitReleasesSameFigureAsFullRun) {
  RunSpec full = FinanceSpec(ContagionModel::kEisenbergNoe, 200, 17);
  full.cleartext_early_exit = false;
  RunSpec early = full;
  early.cleartext_early_exit = true;

  Engine full_engine(full);
  RunReport f = full_engine.Run();
  Engine early_engine(early);
  RunReport e = early_engine.Run();

  EXPECT_EQ(e.released, f.released);
  ASSERT_TRUE(e.has_reference);
  EXPECT_EQ(e.reference, f.reference);
  std::vector<mpc::BitVector> sf = full_engine.FinalStates();
  std::vector<mpc::BitVector> se = early_engine.FinalStates();
  ASSERT_EQ(se.size(), sf.size());
  for (size_t v = 0; v < se.size(); v++) {
    EXPECT_EQ(se[v], sf[v]) << "vertex " << v;
  }
  // EN on a 200-vertex scale-free network converges long before
  // ceil(log2 200) = 8 iterations, so the early run must be cheaper.
  EXPECT_LE(e.iterations, f.iterations);
  EXPECT_LT(e.metrics.total_bytes, f.metrics.total_bytes);
}

}  // namespace
}  // namespace dstress
