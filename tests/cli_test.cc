#include "src/cli/scenario.h"

#include <gtest/gtest.h>

#include <fstream>

#include "src/engine/engine.h"

namespace dstress::cli {
namespace {

TEST(ScenarioParseTest, FullScenarioRoundTrips) {
  std::string error;
  auto spec = ParseScenario(R"(
# comment line
network core_periphery 50 10
degree_cap 9
model egj
mode cleartext
transport tcp
iterations 6
block_size 8
fanout 16
epsilon 0.5
leverage 0.2
shock 0 1 2
triples ot
early_exit on
seed 99
)",
                            &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->topology.kind, engine::TopologySpec::Kind::kCorePeriphery);
  EXPECT_EQ(spec->topology.num_vertices, 50);
  EXPECT_EQ(spec->topology.core_size, 10);
  EXPECT_EQ(spec->topology.degree_cap, 9);
  EXPECT_EQ(spec->model, engine::ContagionModel::kElliottGolubJackson);
  EXPECT_EQ(spec->mode, engine::ExecutionMode::kCleartextFast);
  EXPECT_EQ(spec->transport.backend, "tcp");
  EXPECT_EQ(spec->iterations, 6);
  EXPECT_EQ(spec->block_size, 8);
  EXPECT_EQ(spec->aggregation_fanout, 16);
  EXPECT_DOUBLE_EQ(spec->epsilon, 0.5);
  EXPECT_DOUBLE_EQ(spec->leverage, 0.2);
  EXPECT_EQ(spec->shock.shocked_banks, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(spec->use_ot_triples);
  EXPECT_TRUE(spec->cleartext_early_exit);
  EXPECT_EQ(spec->seed, 99u);
}

TEST(ScenarioParseTest, DefaultsApply) {
  std::string error;
  auto spec = ParseScenario("network scale_free 20 2\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->model, engine::ContagionModel::kEisenbergNoe);
  EXPECT_EQ(spec->mode, engine::ExecutionMode::kSecure);
  EXPECT_EQ(spec->transport.backend, "sim");
  EXPECT_EQ(spec->iterations, 0);
  EXPECT_EQ(spec->block_size, 4);
  EXPECT_EQ(spec->aggregation_fanout, 0);
  EXPECT_FALSE(spec->use_ot_triples);
  EXPECT_FALSE(spec->cleartext_early_exit);
}

TEST(ScenarioParseTest, ExplicitEdges) {
  std::string error;
  auto spec = ParseScenario(R"(
network explicit 4
edge 0 1
edge 1 2
edge 2 3
)",
                            &error);
  ASSERT_TRUE(spec.has_value()) << error;
  graph::Graph g = engine::BuildTopologyGraph(spec->topology, spec->seed);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
}

TEST(ScenarioParseTest, ErrorsCarryLineNumbers) {
  struct Case {
    const char* text;
    const char* expected_fragment;
  };
  const Case cases[] = {
      {"network core_periphery 10\n", "line 1"},
      {"network core_periphery 10 20\n", "core_size exceeds N"},
      {"network scale_free 20 2\nmodel xx\n", "model must be"},
      {"network scale_free 20 2\nmode tls\n", "mode must be 'secure' or 'cleartext'"},
      {"network scale_free 20 2\nmode cleartext fast\n", "expected 1 argument"},
      {"network scale_free 20 2\ntransport pigeon\n", "transport must be 'sim' or 'tcp'"},
      {"network scale_free 20 2\ntransport\n", "usage: transport"},
      {"network scale_free 20 2\ntransport sim 127.0.0.1:7000\n", "takes no rendezvous"},
      {"network scale_free 20 2\ntransport tcp 127.0.0.1\n", "explicit port"},
      {"network scale_free 20 2\ntransport tcp :7000\n", "empty host"},
      {"network scale_free 20 2\ntransport tcp 127.0.0.1:x\n", "bad endpoint"},
      {"network scale_free 20 2\ntransport tcp 127.0.0.1:99999\n", "bad endpoint"},
      {"network scale_free 20 2\nnode 0\n", "expected 2 argument"},
      {"network scale_free 20 2\nnode 0 10.0.0.1\n", "require 'transport tcp'"},
      {"network scale_free 20 2\ntransport tcp\nnode 0 10.0.0.1\n", "fixed rendezvous port"},
      {"network scale_free 4 2\ntransport tcp 0.0.0.0:7000\nnode 4 10.0.0.1\n", "out of range"},
      {"network scale_free 20 2\ntransport tcp 0.0.0.0:7000\nnode 1 10.0.0.1\nnode 1 10.0.0.2\n",
       "already placed on line 3"},
      {"network scale_free 20 2\ntransport tcp driver.internal:7000\n",
       "not a numeric IPv4 address"},
      {"network scale_free 20 2\ntransport tcp 0.0.0.0:7000\nnode 0 bank-host-1\n",
       "not a numeric IPv4 address"},
      {"network scale_free 20 2\nfanout x\n", "bad integer"},
      {"network scale_free 20 2\nfanout 1\n", "fanout must be 0"},
      {"network scale_free 20 2\ndegree_cap 0\n", "bad integer"},
      {"network scale_free 20 2\nfrobnicate 1\n", "unknown directive"},
      {"network scale_free 20 2\ntriples maybe\n", "triples must be"},
      {"network scale_free 20 2\ntriples ot\nha checkpoint_every 1\n",
       "cannot be combined with HA checkpoint/resume"},
      {"network scale_free 20 2\nmode cleartext\nha checkpoint_path /tmp/c.ckpt\n",
       "require 'mode secure'"},
      {"network scale_free 20 2\nearly_exit maybe\n", "early_exit must be"},
      {"network scale_free 20 2\nepsilon -1\n", "epsilon must be positive"},
      {"network scale_free 20 2\nleverage 0\n", "leverage must be in"},
      {"network scale_free 20 2\nedge 0 1\n", "network explicit"},
      {"network explicit 3\nedge 0 3\n", "out of range"},
      {"network explicit 3\nedge 1 1\n", "out of range"},
      {"network scale_free 20 2\nshock 25\n", "out of range"},
      {"network scale_free 20 2\niterations x\n", "bad integer"},
      {"model en\n", "missing a 'network'"},
      {"", "missing a 'network'"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto spec = ParseScenario(c.text, &error);
    EXPECT_FALSE(spec.has_value()) << c.text;
    EXPECT_NE(error.find(c.expected_fragment), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
  }
}

// The plane-selection directives are gone with the planes they selected: a
// scenario that still names one fails at that line instead of silently
// running the only plane left.
TEST(ScenarioParseTest, RemovedPlaneDirectivesFailLoudly) {
  const struct {
    const char* line;
    const char* error;
  } cases[] = {
      {"transfer_batching on", "line 2: unknown directive 'transfer_batching'"},
      {"ot_batching on", "line 2: unknown directive 'ot_batching'"},
      {"graph_plane arena", "line 2: unknown directive 'graph_plane'"},
  };
  for (const auto& c : cases) {
    std::string error;
    auto spec = ParseScenario(std::string("network scale_free 20 2\n") + c.line + "\n", &error);
    EXPECT_FALSE(spec.has_value()) << c.line;
    EXPECT_EQ(error, c.error);
  }
}

TEST(ScenarioParseTest, MultiMachineNodeDirectives) {
  std::string error;
  auto spec = ParseScenario(R"(
network core_periphery 4 2
transport tcp 0.0.0.0:7400
node 0 10.0.0.10:7411
node 1 10.0.0.11:7411
node 2 10.0.0.12       # port left to the OS
seed 3
)",
                            &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->transport.backend, "tcp");
  EXPECT_EQ(spec->transport.host, "0.0.0.0");
  EXPECT_EQ(spec->transport.port, 7400);
  EXPECT_TRUE(spec->transport.external_nodes);
  ASSERT_EQ(spec->transport.node_endpoints.size(), 4u);
  EXPECT_EQ(spec->transport.node_endpoints[0], (net::PeerEndpoint{"10.0.0.10", 7411}));
  EXPECT_EQ(spec->transport.node_endpoints[1], (net::PeerEndpoint{"10.0.0.11", 7411}));
  EXPECT_EQ(spec->transport.node_endpoints[2], (net::PeerEndpoint{"10.0.0.12", 0}));
  // Bank 3 has no `node` line: any advertised endpoint is accepted.
  EXPECT_EQ(spec->transport.node_endpoints[3], (net::PeerEndpoint{}));
}

TEST(ScenarioParseTest, TcpRendezvousAddressWithoutNodeDirectives) {
  // A fixed rendezvous address alone keeps the driver in spawn-local mode:
  // external_nodes engages only through `node` directives.
  std::string error;
  auto spec = ParseScenario("network scale_free 8 2\ntransport tcp 127.0.0.1:7500\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->transport.host, "127.0.0.1");
  EXPECT_EQ(spec->transport.port, 7500);
  EXPECT_FALSE(spec->transport.external_nodes);
  EXPECT_TRUE(spec->transport.node_endpoints.empty());
}

TEST(ScenarioParseTest, CommentsAndBlankLinesIgnored) {
  std::string error;
  auto spec = ParseScenario("\n\n# header\nnetwork erdos_renyi 8 0.5   # trailing\n\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->topology.kind, engine::TopologySpec::Kind::kErdosRenyi);
  EXPECT_DOUBLE_EQ(spec->topology.edge_probability, 0.5);
}

TEST(ScenarioGraphTest, TopologiesRespectSizes) {
  std::string error;
  for (const char* text : {
           "network core_periphery 24 5\n",
           "network scale_free 24 2\n",
           "network erdos_renyi 24 0.2\n",
       }) {
    auto spec = ParseScenario(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->topology.num_vertices, 24) << text;
    graph::Graph g = engine::BuildTopologyGraph(spec->topology, spec->seed);
    EXPECT_EQ(g.num_vertices(), 24) << text;
    EXPECT_GT(g.num_edges(), 0) << text;
  }
}

TEST(ScenarioGraphTest, SameSeedSameGraph) {
  std::string error;
  auto spec = ParseScenario("network scale_free 30 2\nseed 5\n", &error);
  ASSERT_TRUE(spec.has_value());
  graph::Graph a = engine::BuildTopologyGraph(spec->topology, spec->seed);
  graph::Graph b = engine::BuildTopologyGraph(spec->topology, spec->seed);
  EXPECT_EQ(a.Edges(), b.Edges());
}

TEST(ScenarioParseTest, NetworkFromEdgeListFile) {
  std::string path = ::testing::TempDir() + "/topology.edges";
  {
    std::ofstream out(path);
    out << "graph 4\n0 1\n1 2\n2 3\n3 0\n";
  }
  std::string error;
  auto spec = ParseScenario("network file " + path + "\nshock 2\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->topology.num_vertices, 4);
  graph::Graph g = engine::BuildTopologyGraph(spec->topology, spec->seed);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.HasEdge(3, 0));

  auto missing = ParseScenario("network file /nonexistent/x.edges\n", &error);
  EXPECT_FALSE(missing.has_value());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(ScenarioRunTest, EndToEndEnAndEgj) {
  for (const char* model : {"en", "egj"}) {
    std::string text = std::string("network core_periphery 10 3\nmodel ") + model +
                       "\niterations 3\nblock_size 3\nshock 0\nseed 4\n";
    std::string error;
    auto spec = ParseScenario(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    engine::Engine engine(*spec);
    engine::RunReport report = engine.Run();
    EXPECT_EQ(report.iterations, 3);
    ASSERT_TRUE(report.has_reference);
    EXPECT_GT(report.metrics.total_seconds, 0.0);
    // The released figure is the reference plus bounded geometric noise;
    // with eps=0.23 and sensitivity<=20 the tail beyond 2000 units is
    // negligible (P < 1e-10).
    EXPECT_NEAR(static_cast<double>(report.released),
                static_cast<double>(report.reference), 2000.0)
        << model;
    std::string formatted = engine::FormatReport(*spec, report);
    EXPECT_NE(formatted.find("released TDS"), std::string::npos);
  }
}

// OT-triple runs print the offline layer's cost (generation, online wait,
// base-OT executions); dealer runs print no such line.
TEST(ScenarioRunTest, ReportShowsOfflineCostForOtRunsOnly) {
  for (bool ot : {false, true}) {
    std::string text = "network core_periphery 6 2\niterations 1\nblock_size 2\nshock 0\nseed 4\n";
    if (ot) {
      text += "triples ot\n";
    }
    std::string error;
    auto spec = ParseScenario(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    engine::Engine engine(*spec);
    engine::RunReport report = engine.Run();
    const std::string formatted = engine::FormatReport(*spec, report);
    const size_t line = formatted.find("offline triples:");
    if (!ot) {
      EXPECT_EQ(line, std::string::npos) << formatted;
      continue;
    }
    ASSERT_NE(line, std::string::npos) << formatted;
    EXPECT_GT(report.metrics.base_ot_executions, 0u);
    const std::string executions =
        " " + std::to_string(report.metrics.base_ot_executions) + " base-OT executions\n";
    EXPECT_NE(formatted.find(executions, line), std::string::npos) << formatted;
  }
}

// A solo secure report splits its wall time by phase, as an ensemble
// report does, so GMW compute shows against the edge transfers.
TEST(ScenarioRunTest, SoloSecureReportShowsPhases) {
  std::string error;
  auto spec = ParseScenario(
      "network core_periphery 6 2\niterations 2\nblock_size 2\nshock 0\nseed 4\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  engine::Engine engine(*spec);
  engine::RunReport report = engine.Run();
  EXPECT_EQ(report.mode, engine::ExecutionMode::kSecure);
  EXPECT_GT(report.metrics.compute.seconds, 0.0);
  EXPECT_GT(report.metrics.communicate.seconds, 0.0);

  const std::string formatted = engine::FormatReport(*spec, report);
  const size_t phases = formatted.find(engine::FormatPhaseLine(report.metrics));
  ASSERT_NE(phases, std::string::npos) << formatted;
  EXPECT_EQ(formatted.compare(phases, 26, "phases:              init "), 0) << formatted;
  EXPECT_LT(formatted.find("released TDS:"), phases) << formatted;
  EXPECT_LT(phases, formatted.find("wall time:")) << formatted;
  EXPECT_NE(formatted.find("traffic per bank:"), std::string::npos) << formatted;
}

TEST(ScenarioParseTest, DuplicateShockedBankRejected) {
  std::string error;
  auto spec = ParseScenario("network core_periphery 10 3\nshock 0 3 3\n", &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("duplicate shocked bank 3"), std::string::npos) << error;
}

TEST(ScenarioParseTest, EnsembleDirectivesRoundTrip) {
  std::string error;
  auto spec = ParseScenario(
      "network scale_free 20 2\n"
      "mode cleartext\n"
      "shock 0\n"
      "ensemble shock_draws 16 seed 7\n"
      "ensemble shock_magnitude_range 0.1 0.6\n"
      "ensemble banks_per_draw 2\n"
      "ensemble perturb_workload on\n"
      "ensemble budget 4.0\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_TRUE(spec->ensemble.has_value());
  EXPECT_EQ(spec->ensemble->shock_draws, 16);
  EXPECT_EQ(spec->ensemble->draw_seed, 7u);
  EXPECT_TRUE(spec->ensemble->has_magnitude_range);
  EXPECT_DOUBLE_EQ(spec->ensemble->magnitude_lo, 0.1);
  EXPECT_DOUBLE_EQ(spec->ensemble->magnitude_hi, 0.6);
  EXPECT_EQ(spec->ensemble->banks_per_draw, 2);
  EXPECT_TRUE(spec->ensemble->perturb_workload);
  EXPECT_DOUBLE_EQ(spec->ensemble->epsilon_budget, 4.0);
  EXPECT_EQ(spec->ensemble->Width(), 16);
}

TEST(ScenarioParseTest, EnsembleExplicitScenarios) {
  std::string error;
  auto spec = ParseScenario(
      "network core_periphery 10 3\n"
      "ensemble scenario 0\n"
      "ensemble scenario 1 2\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_TRUE(spec->ensemble.has_value());
  ASSERT_EQ(spec->ensemble->scenarios.size(), 2u);
  EXPECT_EQ(spec->ensemble->scenarios[0].shock.shocked_banks, (std::vector<int>{0}));
  EXPECT_EQ(spec->ensemble->scenarios[1].shock.shocked_banks, (std::vector<int>{1, 2}));
}

// Both planes aggregate any ensemble width under any fanout, so a tree
// and several scenarios parse together.
TEST(ScenarioParseTest, EnsembleUnderAggregationTree) {
  std::string error;
  auto spec = ParseScenario(
      "network core_periphery 10 3\n"
      "fanout 2\n"
      "ensemble scenario 0\n"
      "ensemble scenario 1\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->aggregation_fanout, 2);
  ASSERT_TRUE(spec->ensemble.has_value());
  EXPECT_EQ(spec->ensemble->Width(), 2);
}

TEST(ScenarioParseTest, EnsembleValidationErrors) {
  struct Case {
    const char* text;
    const char* want;
  };
  const Case cases[] = {
      {"network core_periphery 10 3\nensemble scenario 0 0\n", "duplicate shocked bank 0"},
      {"network core_periphery 10 3\nensemble budget 1\n",
       "needs 'ensemble scenario' lines or 'ensemble shock_draws'"},
      {"network core_periphery 10 3\nensemble scenario 0\n"
       "ensemble shock_draws 4 seed 1\n",
       "cannot mix"},
      {"network core_periphery 10 3\nensemble scenario 0\n"
       "ensemble banks_per_draw 2\n",
       "'ensemble shock_draws'"},
      {"network core_periphery 10 3\nensemble scenario 12\n", "out of range"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto spec = ParseScenario(c.text, &error);
    EXPECT_FALSE(spec.has_value()) << c.text;
    EXPECT_NE(error.find(c.want), std::string::npos)
        << "wanted '" << c.want << "' in: " << error;
  }
}

TEST(ScenarioRunTest, CleartextModeRunsTheSameScenario) {
  std::string error;
  auto spec = ParseScenario(
      "network core_periphery 10 3\nmode cleartext\niterations 3\nshock 0\nseed 4\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  engine::Engine engine(*spec);
  engine::RunReport report = engine.Run();
  ASSERT_TRUE(report.has_reference);
  EXPECT_EQ(report.mode, engine::ExecutionMode::kCleartextFast);
  EXPECT_NEAR(static_cast<double>(report.released), static_cast<double>(report.reference),
              2000.0);
  EXPECT_GT(report.metrics.total_bytes, 0u);
}

}  // namespace
}  // namespace dstress::cli
