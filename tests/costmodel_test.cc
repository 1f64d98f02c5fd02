#include "src/costmodel/cost_model.h"

#include <gtest/gtest.h>

#include "src/core/vertex_program.h"
#include "src/finance/eisenberg_noe.h"

namespace dstress::costmodel {
namespace {

MicroCosts FakeCosts() {
  MicroCosts costs;
  costs.seconds_per_and = 1e-6;
  costs.bytes_per_and = 2.0;
  costs.seconds_bundle_encrypt = 5e-3;
  costs.seconds_source_endpoint = 2e-3;
  costs.seconds_dest_adjust = 1e-4;
  costs.seconds_column_decrypt = 1e-3;
  costs.calibrated_block_size = 8;
  costs.calibrated_message_bits = 12;
  return costs;
}

ProjectionParams BaseParams() {
  ProjectionParams p;
  p.num_nodes = 500;
  p.degree_bound = 10;
  p.block_size = 8;
  p.iterations = 9;
  p.message_bits = 12;
  p.update_and_gates = 5000;
  p.aggregate_and_gates_per_group = 8000;
  p.combine_and_gates = 2000;
  p.state_bits = 400;
  return p;
}

TEST(CostModelTest, CalibrationProducesPositiveCosts) {
  MicroCosts costs = CalibrateBatched(/*block_size=*/3, /*message_bits=*/6, /*batch_width=*/4);
  EXPECT_GT(costs.seconds_per_and, 0.0);
  EXPECT_GT(costs.bytes_per_and, 0.0);
  EXPECT_GT(costs.seconds_bundle_encrypt, 0.0);
  EXPECT_GT(costs.seconds_source_endpoint, 0.0);
  EXPECT_GT(costs.seconds_dest_adjust, 0.0);
  EXPECT_GT(costs.seconds_column_decrypt, 0.0);
  EXPECT_GT(costs.seconds_cert_table_build, 0.0);
  EXPECT_FALSE(costs.ToString().empty());
  // GMW per-AND traffic per member: 2 bits to each of k peers = 2(k+1-1)/8
  // bytes plus framing; must be within an order of magnitude of that.
  double analytic = 2.0 * (3 - 1) / 8.0;
  EXPECT_GT(costs.bytes_per_and, 0.3 * analytic);
  EXPECT_LT(costs.bytes_per_and, 30 * analytic);
  // The metered wire bytes are deterministic: every packed instance sends
  // exactly a solo GMW evaluation's messages.
  EXPECT_DOUBLE_EQ(costs.bytes_per_and, 0.60768234786361675);
}

TEST(CostModelTest, ProjectionMonotoneInDegree) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  double prev = 0;
  for (int d : {10, 40, 70, 100}) {
    p.degree_bound = d;
    Projection proj = Project(costs, p);
    EXPECT_GT(proj.total_seconds, prev);
    prev = proj.total_seconds;
  }
}

TEST(CostModelTest, ProjectionMonotoneInIterations) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  p.iterations = 5;
  double t5 = Project(costs, p).total_seconds;
  p.iterations = 11;
  double t11 = Project(costs, p).total_seconds;
  EXPECT_GT(t11, t5);
}

TEST(CostModelTest, ProjectionMonotoneInBlockSize) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  p.block_size = 8;
  Projection small = Project(costs, p);
  p.block_size = 20;
  Projection large = Project(costs, p);
  EXPECT_GT(large.total_seconds, small.total_seconds);
  EXPECT_GT(large.traffic_bytes_per_node, small.traffic_bytes_per_node);
}

TEST(CostModelTest, CommunicationDominatedByBundles) {
  // With D = 100 and k+1 = 20, per-node communicate time is dominated by
  // the k+1 * D bundle encryptions (the paper's per-node bottleneck).
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  p.block_size = 20;
  p.degree_bound = 100;
  Projection proj = Project(costs, p);
  double bundles_only = p.iterations * 20.0 * 100 * costs.seconds_bundle_encrypt;
  EXPECT_GT(proj.communicate_seconds, bundles_only);
  EXPECT_LT(proj.communicate_seconds, 2.0 * bundles_only);
}

TEST(CostModelTest, TrafficFormulaTracksWireSizes) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  Projection proj = Project(costs, p);
  // Communicate traffic per node and iteration: (k+1+1) bundles out plus
  // k+1 columns per in-edge.
  double bundle = (1 + 8.0 * 12) * 33;
  double column = (1 + 12.0) * 33;
  double per_iter = 8 * 10 * bundle + 10 * bundle + 10 * 8 * column;
  double communicate = p.iterations * per_iter;
  EXPECT_GT(proj.traffic_bytes_per_node, communicate);  // plus GMW traffic
  EXPECT_LT(proj.traffic_bytes_per_node,
            communicate + (p.iterations + 1) * p.block_size * 5000 * 2.0 + 8 * 50 + 1e5);
}

TEST(CostModelTest, RealCircuitCountsPlugIn) {
  // The projection accepts AND counts straight from the EN program builder.
  finance::EnProgramParams en;
  en.degree_bound = 10;
  en.iterations = 7;
  auto program = finance::MakeEnProgram(en);
  auto update = core::BuildUpdateCircuit(program);
  auto agg = core::BuildAggregateCircuit(program, 100, false);
  auto combine = core::BuildCombineCircuit(program, 5, true);

  ProjectionParams p = BaseParams();
  p.update_and_gates = update.stats().num_and;
  p.aggregate_and_gates_per_group = agg.stats().num_and;
  p.combine_and_gates = combine.stats().num_and;
  p.state_bits = program.state_bits;
  Projection proj = Project(FakeCosts(), p);
  EXPECT_GT(proj.total_seconds, 0.0);
  EXPECT_GT(proj.traffic_bytes_per_node, 0.0);
}

TEST(WanModelTest, ZeroLatencyAndInfiniteUplinkMatchesBase) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  p.update_and_depth = 40;
  p.aggregate_and_depth = 30;
  p.combine_and_depth = 20;
  WanParams wan;
  wan.rtt_ms = 0;
  wan.bandwidth_mbps = 1e12;
  Projection base = Project(costs, p);
  Projection over_wan = ProjectWan(costs, p, wan);
  EXPECT_NEAR(over_wan.total_seconds, base.total_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(over_wan.traffic_bytes_per_node, base.traffic_bytes_per_node);
}

TEST(WanModelTest, LatencyTermScalesWithRttAndDepth) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  p.update_and_depth = 40;
  WanParams slow;
  slow.rtt_ms = 50;
  WanParams fast;
  fast.rtt_ms = 10;
  double extra_slow = ProjectWan(costs, p, slow).total_seconds - Project(costs, p).total_seconds;
  double extra_fast = ProjectWan(costs, p, fast).total_seconds - Project(costs, p).total_seconds;
  EXPECT_GT(extra_slow, extra_fast);
  // The compute latency term alone: (I+1) * (k+1) * depth * rtt.
  double compute_latency = (p.iterations + 1) * p.block_size * 40.0 * 0.05;
  EXPECT_GE(extra_slow, compute_latency);

  // Doubling the depth at fixed RTT grows the WAN penalty.
  p.update_and_depth = 80;
  double extra_deeper =
      ProjectWan(costs, p, slow).total_seconds - Project(costs, p).total_seconds;
  EXPECT_GT(extra_deeper, extra_slow);
}

TEST(WanModelTest, BandwidthTermScalesInversely) {
  MicroCosts costs = FakeCosts();
  ProjectionParams p = BaseParams();
  WanParams narrow;
  narrow.rtt_ms = 0;
  narrow.bandwidth_mbps = 10;
  WanParams wide;
  wide.rtt_ms = 0;
  wide.bandwidth_mbps = 1000;
  Projection base = Project(costs, p);
  double narrow_extra = ProjectWan(costs, p, narrow).total_seconds - base.total_seconds;
  double wide_extra = ProjectWan(costs, p, wide).total_seconds - base.total_seconds;
  EXPECT_NEAR(narrow_extra, 100 * wide_extra, narrow_extra * 0.01);
  EXPECT_NEAR(narrow_extra, base.traffic_bytes_per_node / (10e6 / 8), narrow_extra * 0.01);
}

}  // namespace
}  // namespace dstress::costmodel
