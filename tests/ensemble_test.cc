// Scenario-ensemble subsystem tests (src/ensemble + the engine/runtime
// ensemble planes).
//
// The load-bearing property is per-lane fidelity: scenario s of an ensemble
// run must release the figure that an independent solo run of
// ensemble::SoloSpecFor(base, scenarios[s]) releases, bit-exactly, in both
// execution modes — the lanes share one lockstep pass but must be
// observationally independent. Width-1 ensembles must additionally be
// traffic-identical to a plain run (same per-node TrafficStats), which pins
// the W-identical case to the seed schedule, and a wider secure ensemble's
// traffic is the sum of its solo runs', flat or tree-aggregated.

#include "src/ensemble/ensemble.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/ensemble/spec.h"

namespace dstress::ensemble {
namespace {

using engine::ContagionModel;
using engine::Engine;
using engine::ExecutionMode;
using engine::RunSpec;

RunSpec CleartextBase(int num_banks) {
  RunSpec spec;
  spec.topology.kind = engine::TopologySpec::Kind::kScaleFree;
  spec.topology.num_vertices = num_banks;
  spec.topology.links_per_vertex = 2;
  spec.topology.degree_cap = 4;
  spec.model = ContagionModel::kEisenbergNoe;
  spec.mode = ExecutionMode::kCleartextFast;
  spec.shock.shocked_banks = std::vector<int>{0};
  spec.seed = 11;
  return spec;
}

RunSpec SecureBase(int num_banks, int iterations) {
  RunSpec spec;
  spec.topology.kind = engine::TopologySpec::Kind::kScaleFree;
  spec.topology.num_vertices = num_banks;
  spec.topology.links_per_vertex = 2;
  spec.topology.degree_cap = 3;
  spec.model = ContagionModel::kEisenbergNoe;
  spec.mode = ExecutionMode::kSecure;
  spec.block_size = 2;
  spec.iterations = iterations;
  spec.shock.shocked_banks = std::vector<int>{0};
  spec.seed = 11;
  return spec;
}

// Runs the ensemble and asserts every lane against its independent solo run.
void ExpectLanesMatchSolo(const RunSpec& base) {
  ASSERT_TRUE(base.ensemble.has_value());
  std::vector<Scenario> scenarios = MaterializeScenarios(
      *base.ensemble, base.shock, base.topology.num_vertices);
  EnsembleReport report = Engine(base).RunEnsemble();
  ASSERT_EQ(report.scenarios.size(), scenarios.size());
  for (size_t s = 0; s < scenarios.size(); s++) {
    RunSpec solo = SoloSpecFor(base, scenarios[s]);
    engine::RunReport solo_report = Engine(solo).Run();
    EXPECT_EQ(report.scenarios[s].released, solo_report.released)
        << "lane " << s << " (" << scenarios[s].label << ")";
    ASSERT_TRUE(report.scenarios[s].has_reference);
    EXPECT_EQ(report.scenarios[s].reference, solo_report.reference)
        << "lane " << s << " (" << scenarios[s].label << ")";
  }
}

// Adds `width` explicit scenarios, lane s shocking bank s alone.
void AddExplicitScenarios(RunSpec* spec, int width) {
  spec->ensemble.emplace();
  for (int s = 0; s < width; s++) {
    Scenario sc;
    sc.shock.shocked_banks = std::vector<int>{s};
    spec->ensemble->scenarios.push_back(sc);
  }
}

// --- scenario materialization ----------------------------------------------

TEST(MaterializeScenariosTest, DrawsAreDeterministicDistinctAndInRange) {
  EnsembleSpec es;
  es.shock_draws = 32;
  es.draw_seed = 5;
  es.banks_per_draw = 3;
  es.has_magnitude_range = true;
  es.magnitude_lo = 0.2;
  es.magnitude_hi = 0.7;
  finance::ShockParams base;
  base.shocked_banks = std::vector<int>{0};
  std::vector<Scenario> a = MaterializeScenarios(es, base, 20);
  std::vector<Scenario> b = MaterializeScenarios(es, base, 20);
  ASSERT_EQ(a.size(), 32u);
  ASSERT_EQ(b.size(), 32u);
  for (size_t k = 0; k < a.size(); k++) {
    EXPECT_EQ(a[k].shock.shocked_banks, b[k].shock.shocked_banks) << "draw " << k;
    EXPECT_DOUBLE_EQ(a[k].shock.survival, b[k].shock.survival) << "draw " << k;
    ASSERT_EQ(a[k].shock.shocked_banks.size(), 3u);
    std::set<int> distinct(a[k].shock.shocked_banks.begin(), a[k].shock.shocked_banks.end());
    EXPECT_EQ(distinct.size(), 3u) << "draw " << k << " repeated a bank";
    for (int bank : a[k].shock.shocked_banks) {
      EXPECT_GE(bank, 0);
      EXPECT_LT(bank, 20);
    }
    EXPECT_GE(a[k].shock.survival, 0.2);
    EXPECT_LE(a[k].shock.survival, 0.7);
    EXPECT_FALSE(a[k].workload_seed.has_value());
  }
}

TEST(MaterializeScenariosTest, ExplicitScenariosPassThrough) {
  EnsembleSpec es;
  Scenario one;
  one.shock.shocked_banks = std::vector<int>{2, 3};
  one.label = "pair";
  es.scenarios.push_back(one);
  finance::ShockParams base;
  std::vector<Scenario> out = MaterializeScenarios(es, base, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].shock.shocked_banks, (std::vector<int>{2, 3}));
  EXPECT_EQ(out[0].label, "pair");
}

TEST(MaterializeScenariosTest, PerturbWorkloadAssignsDistinctSeeds) {
  EnsembleSpec es;
  es.shock_draws = 8;
  es.draw_seed = 3;
  es.perturb_workload = true;
  finance::ShockParams base;
  base.shocked_banks = std::vector<int>{0};
  std::vector<Scenario> out = MaterializeScenarios(es, base, 12);
  std::set<uint64_t> seeds;
  for (const Scenario& sc : out) {
    ASSERT_TRUE(sc.workload_seed.has_value());
    seeds.insert(*sc.workload_seed);
  }
  EXPECT_EQ(seeds.size(), out.size()) << "workload seeds must be distinct";
}

// --- reduce ----------------------------------------------------------------

TEST(ReduceEnsembleTest, QuantileNearestRank) {
  std::vector<int64_t> sorted = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(QuantileNearestRank(sorted, 0.0), 10);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.05), 10);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.25), 30);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.50), 50);
  EXPECT_EQ(QuantileNearestRank(sorted, 0.75), 80);
  EXPECT_EQ(QuantileNearestRank(sorted, 1.0), 100);
}

TEST(ReduceEnsembleTest, MomentsQuantilesAndBands) {
  EnsembleReport report;
  for (int64_t v : {4, 1, 3, 2}) {
    ScenarioResult sc;
    sc.released = v;
    report.scenarios.push_back(sc);
  }
  // Bank 0 defaults in every scenario, bank 1 in half, bank 2 never.
  std::vector<std::vector<uint8_t>> defaults = {
      {1, 1, 0}, {1, 0, 0}, {1, 1, 0}, {1, 0, 0}};
  ReduceEnsemble(defaults, &report);
  EXPECT_DOUBLE_EQ(report.mean, 2.5);
  EXPECT_NEAR(report.stddev, 1.29, 0.01);
  EXPECT_EQ(report.min_released, 1);
  EXPECT_EQ(report.max_released, 4);
  EXPECT_EQ(report.p50, 2);
  EXPECT_EQ(report.p95, 4);
  ASSERT_EQ(report.default_probability.size(), 3u);
  EXPECT_DOUBLE_EQ(report.default_probability[0], 1.0);
  EXPECT_DOUBLE_EQ(report.default_band_lo[0], 1.0);
  EXPECT_DOUBLE_EQ(report.default_band_hi[0], 1.0);
  EXPECT_DOUBLE_EQ(report.default_probability[1], 0.5);
  EXPECT_GT(report.default_band_hi[1], 0.5);
  EXPECT_LT(report.default_band_lo[1], 0.5);
  EXPECT_DOUBLE_EQ(report.default_probability[2], 0.0);
}

// --- cleartext lane fidelity ----------------------------------------------

TEST(EnsembleCleartextTest, SingleScenarioMatchesSolo) {
  RunSpec spec = CleartextBase(40);
  spec.ensemble.emplace();
  Scenario sc;
  sc.shock = spec.shock;
  spec.ensemble->scenarios.push_back(sc);
  ExpectLanesMatchSolo(spec);
}

// Under an aggregation tree every hop carries S-lane payloads along the
// solo schedule.
TEST(EnsembleCleartextTest, ThreeExplicitScenariosMatchSolo) {
  for (int fanout : {0, 2, 4}) {
    RunSpec spec = CleartextBase(40);
    spec.aggregation_fanout = fanout;
    spec.ensemble.emplace();
    for (std::vector<int> banks : {std::vector<int>{0}, {1, 2}, {5, 7, 9}}) {
      Scenario sc;
      sc.shock.shocked_banks = std::move(banks);
      spec.ensemble->scenarios.push_back(sc);
    }
    ExpectLanesMatchSolo(spec);
  }
}

TEST(EnsembleCleartextTest, SixtyFourDrawsMatchSolo) {
  for (int fanout : {0, 2, 4}) {
    RunSpec spec = CleartextBase(40);
    spec.aggregation_fanout = fanout;
    spec.ensemble.emplace();
    spec.ensemble->shock_draws = 64;
    spec.ensemble->draw_seed = 9;
    spec.ensemble->banks_per_draw = 2;
    spec.ensemble->has_magnitude_range = true;
    spec.ensemble->magnitude_lo = 0.0;
    spec.ensemble->magnitude_hi = 0.6;
    ExpectLanesMatchSolo(spec);
  }
}

TEST(EnsembleCleartextTest, PerturbedWorkloadLanesMatchSolo) {
  RunSpec spec = CleartextBase(24);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 8;
  spec.ensemble->draw_seed = 4;
  spec.ensemble->perturb_workload = true;
  ExpectLanesMatchSolo(spec);
}

// A >64-scenario ensemble exercises the chunked (multi-pass) plane.
TEST(EnsembleCleartextTest, ChunkedEnsembleBeyondSixtyFourLanes) {
  RunSpec spec = CleartextBase(16);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 70;
  spec.ensemble->draw_seed = 2;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.5;
  ExpectLanesMatchSolo(spec);
}

TEST(EnsembleCleartextTest, Width1TrafficIdenticalToSolo) {
  RunSpec base = CleartextBase(30);
  RunSpec with_ensemble = base;
  with_ensemble.ensemble.emplace();
  Scenario sc;
  sc.shock = base.shock;
  with_ensemble.ensemble->scenarios.push_back(sc);

  Engine solo(base);
  engine::RunReport solo_report = solo.Run();
  Engine ens(with_ensemble);
  EnsembleReport report = ens.RunEnsemble();

  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].released, solo_report.released);
  EXPECT_EQ(report.metrics.total_bytes, solo_report.metrics.total_bytes);
  ASSERT_EQ(ens.transport().num_nodes(), solo.transport().num_nodes());
  for (int v = 0; v < base.topology.num_vertices; v++) {
    net::TrafficStats a = ens.transport().NodeStats(v);
    net::TrafficStats b = solo.transport().NodeStats(v);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "node " << v;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "node " << v;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "node " << v;
  }
}

// --- secure (dealer) lane fidelity ----------------------------------------

TEST(EnsembleSecureTest, SingleScenarioTrafficIdenticalToSolo) {
  RunSpec base = SecureBase(8, 2);
  RunSpec with_ensemble = base;
  with_ensemble.ensemble.emplace();
  Scenario sc;
  sc.shock = base.shock;
  with_ensemble.ensemble->scenarios.push_back(sc);

  Engine solo(base);
  engine::RunReport solo_report = solo.Run();
  Engine ens(with_ensemble);
  EnsembleReport report = ens.RunEnsemble();

  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].released, solo_report.released);
  EXPECT_EQ(report.metrics.total_bytes, solo_report.metrics.total_bytes);
  for (int v = 0; v < ens.transport().num_nodes(); v++) {
    net::TrafficStats a = ens.transport().NodeStats(v);
    net::TrafficStats b = solo.transport().NodeStats(v);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "node " << v;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "node " << v;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "node " << v;
  }
}

// N=8 under fanout 2 aggregates through 4 leaves, a combine level of 2 and
// the root, every stage carrying all three lanes. On a one-thread pool the
// communicate step, one task per (lane, edge) pair, completes only if no
// task waits on another.
TEST(EnsembleSecureTest, ThreeExplicitScenariosMatchSolo) {
  for (auto [fanout, threads] : {std::pair{0, 0}, {2, 0}, {2, 1}}) {
    RunSpec spec = SecureBase(8, 2);
    spec.aggregation_fanout = fanout;
    spec.max_parallel_tasks = threads;
    spec.ensemble.emplace();
    for (std::vector<int> banks : {std::vector<int>{0}, {1, 2}, {3}}) {
      Scenario sc;
      sc.shock.shocked_banks = std::move(banks);
      spec.ensemble->scenarios.push_back(sc);
    }
    ExpectLanesMatchSolo(spec);
  }
}

TEST(EnsembleSecureTest, SixtyFourDrawsMatchSolo) {
  RunSpec spec = SecureBase(6, 1);
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 64;
  spec.ensemble->draw_seed = 13;
  spec.ensemble->has_magnitude_range = true;
  spec.ensemble->magnitude_lo = 0.0;
  spec.ensemble->magnitude_hi = 0.8;
  ExpectLanesMatchSolo(spec);
}

// OT triples: the aggregation wave covers every tree group for both lanes,
// and the ensemble sets up exactly the node pairs its solo run does.
TEST(EnsembleSecureTest, OtTreeAggregatedLanesMatchSolo) {
  RunSpec spec = SecureBase(6, 1);
  spec.use_ot_triples = true;
  spec.aggregation_fanout = 2;
  AddExplicitScenarios(&spec, 2);
  EnsembleReport report = Engine(spec).RunEnsemble();
  ASSERT_EQ(report.scenarios.size(), 2u);
  for (size_t s = 0; s < 2; s++) {
    engine::RunReport solo = Engine(SoloSpecFor(spec, spec.ensemble->scenarios[s])).Run();
    EXPECT_EQ(report.scenarios[s].released, solo.released) << "lane " << s;
    EXPECT_GT(solo.metrics.base_ot_executions, 0u);
    EXPECT_EQ(report.metrics.base_ot_executions, solo.metrics.base_ot_executions) << "lane " << s;
  }
}

// Every lane sends exactly its solo run's messages, so an ensemble's
// per-node traffic is the sum of its solos', under flat and tree
// aggregation alike.
TEST(EnsembleSecureTest, TrafficIsSumOfSoloTraffic) {
  for (int fanout : {0, 2}) {
    RunSpec spec = SecureBase(8, 2);
    spec.aggregation_fanout = fanout;
    AddExplicitScenarios(&spec, 3);
    Engine ens(spec);
    ens.RunEnsemble();

    std::vector<net::TrafficStats> sum(static_cast<size_t>(ens.transport().num_nodes()));
    for (const Scenario& sc : spec.ensemble->scenarios) {
      Engine solo(SoloSpecFor(spec, sc));
      solo.Run();
      for (size_t v = 0; v < sum.size(); v++) {
        net::TrafficStats t = solo.transport().NodeStats(static_cast<int>(v));
        sum[v].bytes_sent += t.bytes_sent;
        sum[v].bytes_received += t.bytes_received;
        sum[v].messages_sent += t.messages_sent;
        sum[v].messages_received += t.messages_received;
      }
    }
    for (size_t v = 0; v < sum.size(); v++) {
      net::TrafficStats t = ens.transport().NodeStats(static_cast<int>(v));
      EXPECT_EQ(t.bytes_sent, sum[v].bytes_sent) << "fanout " << fanout << " node " << v;
      EXPECT_EQ(t.bytes_received, sum[v].bytes_received) << "fanout " << fanout << " node " << v;
      EXPECT_EQ(t.messages_sent, sum[v].messages_sent) << "fanout " << fanout << " node " << v;
      EXPECT_EQ(t.messages_received, sum[v].messages_received)
          << "fanout " << fanout << " node " << v;
    }
  }
}

// --- privacy gate ----------------------------------------------------------

TEST(EnsembleBudgetTest, OverBudgetEnsembleAbortsNamingOverrun) {
  RunSpec spec = CleartextBase(16);
  spec.epsilon = 0.5;
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 4;
  spec.ensemble->draw_seed = 1;
  spec.ensemble->epsilon_budget = 1.0;  // 4 x 0.5 = 2.0 > 1.0
  EXPECT_DEATH(Engine(spec).RunEnsemble(), "exceeds remaining budget");
}

TEST(EnsembleBudgetTest, WithinBudgetEnsembleRuns) {
  RunSpec spec = CleartextBase(16);
  spec.epsilon = 0.2;
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = 4;
  spec.ensemble->draw_seed = 1;
  spec.ensemble->epsilon_budget = 1.0;  // 4 x 0.2 = 0.8 fits
  EnsembleReport report = Engine(spec).RunEnsemble();
  EXPECT_EQ(report.scenarios.size(), 4u);
  EXPECT_DOUBLE_EQ(report.epsilon_total, 0.8);
}

}  // namespace
}  // namespace dstress::ensemble
