#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace dstress::graph {
namespace {

TEST(GraphTest, AddAndQueryEdges) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.OutDegree(0), 2);
  EXPECT_EQ(g.InDegree(2), 2);
  EXPECT_EQ(g.MaxDegree(), 2);
}

TEST(GraphTest, DuplicateEdgesIgnored) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(0, 1);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, EdgesAreDeterministicallyOrdered) {
  Graph g(4);
  g.AddEdge(2, 0);
  g.AddEdge(0, 3);
  g.AddEdge(0, 1);
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(0, 3));
  EXPECT_EQ(edges[1], std::make_pair(0, 1));
  EXPECT_EQ(edges[2], std::make_pair(2, 0));
}

TEST(GraphTest, DegreeBuckets) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 0);
  auto buckets = DegreeBuckets(g, {1, 2});
  EXPECT_EQ(buckets[0], 2);  // degree 3 -> unbounded bucket
  EXPECT_EQ(buckets[1], 0);  // degree 1
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 0);
}

bool IsWeaklyConnected(const Graph& g) {
  std::vector<bool> seen(g.num_vertices(), false);
  std::queue<int> frontier;
  frontier.push(0);
  seen[0] = true;
  int count = 1;
  while (!frontier.empty()) {
    int v = frontier.front();
    frontier.pop();
    auto visit = [&](int u) {
      if (!seen[u]) {
        seen[u] = true;
        count++;
        frontier.push(u);
      }
    };
    for (int u : g.OutNeighbors(v)) {
      visit(u);
    }
    for (int u : g.InNeighbors(v)) {
      visit(u);
    }
  }
  return count == g.num_vertices();
}

TEST(GeneratorsTest, CorePeripheryStructure) {
  Rng rng(1);
  CorePeripheryParams params;
  params.num_vertices = 50;
  params.core_size = 10;
  Graph g = GenerateCorePeriphery(params, rng);
  EXPECT_TRUE(IsWeaklyConnected(g));
  // Edges are symmetric.
  for (auto [u, v] : g.Edges()) {
    EXPECT_TRUE(g.HasEdge(v, u)) << u << "->" << v;
  }
  // Core banks have higher average degree than peripheral banks.
  double core_degree = 0, periphery_degree = 0;
  for (int v = 0; v < params.core_size; v++) {
    core_degree += g.OutDegree(v);
  }
  for (int v = params.core_size; v < params.num_vertices; v++) {
    periphery_degree += g.OutDegree(v);
  }
  core_degree /= params.core_size;
  periphery_degree /= (params.num_vertices - params.core_size);
  EXPECT_GT(core_degree, 2 * periphery_degree);
  // Peripheral banks link only to the core.
  for (int v = params.core_size; v < params.num_vertices; v++) {
    for (int u : g.OutNeighbors(v)) {
      EXPECT_LT(u, params.core_size) << "peripheral " << v << " linked to peripheral " << u;
    }
    EXPECT_LE(g.OutDegree(v), params.max_core_links);
  }
}

TEST(GeneratorsTest, ScaleFreeHasHubs) {
  Rng rng(2);
  Graph g = GenerateScaleFree(200, 2, rng);
  EXPECT_TRUE(IsWeaklyConnected(g));
  int max_degree = g.MaxDegree();
  double avg_degree = 2.0 * g.num_edges() / (2 * g.num_vertices());
  // Preferential attachment produces hubs far above the mean degree.
  EXPECT_GT(max_degree, 4 * avg_degree);
}

TEST(GeneratorsTest, ErdosRenyiDensityMatchesProbability) {
  Rng rng(3);
  constexpr int kN = 100;
  constexpr double kP = 0.1;
  Graph g = GenerateErdosRenyi(kN, kP, rng);
  double pairs = kN * (kN - 1) / 2.0;
  double selected = g.num_edges() / 2.0;  // both directions added
  EXPECT_NEAR(selected / pairs, kP, 0.03);
}

TEST(GeneratorsTest, GeneratorsAreDeterministicPerSeed) {
  Rng a(7), b(7);
  CorePeripheryParams params;
  Graph g1 = GenerateCorePeriphery(params, a);
  Graph g2 = GenerateCorePeriphery(params, b);
  EXPECT_EQ(g1.Edges(), g2.Edges());
}

TEST(GeneratorsTest, CapDegreeEnforcesBound) {
  Rng rng(4);
  Graph g = GenerateScaleFree(100, 3, rng);
  ASSERT_GT(g.MaxDegree(), 8);
  Graph capped = CapDegree(g, 8);
  EXPECT_LE(capped.MaxDegree(), 8);
  EXPECT_LT(capped.num_edges(), g.num_edges());
  // Capping only removes edges, never adds.
  for (auto [u, v] : capped.Edges()) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

// EdgeInSlots equals a per-edge search of the destination's in-list: on
// generated graphs, on a CapDegree output, and on a graph built with
// repeated AddEdge calls.
TEST(GraphTest, EdgeInSlotsMatchInListSearch) {
  auto expect_search = [](const Graph& g) {
    const std::vector<int> slots = EdgeInSlots(g);
    const std::vector<std::pair<int, int>> edges = g.Edges();
    ASSERT_EQ(slots.size(), edges.size());
    for (size_t e = 0; e < edges.size(); e++) {
      const auto [u, v] = edges[e];
      const std::vector<int>& in = g.InNeighbors(v);
      EXPECT_EQ(slots[e], std::find(in.begin(), in.end(), u) - in.begin()) << u << "->" << v;
    }
  };
  Rng rng(21);
  CorePeripheryParams params;
  params.num_vertices = 60;
  params.core_size = 8;
  expect_search(GenerateCorePeriphery(params, rng));
  expect_search(GenerateScaleFree(200, 3, rng));
  Graph capped = CapDegree(GenerateScaleFree(200, 3, rng), 5);
  ASSERT_LE(capped.MaxDegree(), 5);
  expect_search(capped);

  Graph repeated(5);
  for (auto [u, v] : std::vector<std::pair<int, int>>{
           {3, 1}, {0, 1}, {3, 1}, {1, 3}, {4, 1}, {0, 1}, {2, 4}, {1, 3}}) {
    repeated.AddEdge(u, v);
  }
  expect_search(repeated);
  // Edges() is (0,1) (1,3) (2,4) (3,1) (4,1); 1's in-list is 3, 0, 4.
  EXPECT_EQ(EdgeInSlots(repeated), (std::vector<int>{1, 0, 0, 0, 2}));
}

class CorePeripherySizeTest : public ::testing::TestWithParam<int> {};

TEST_P(CorePeripherySizeTest, AllSizesConnectedAndSymmetric) {
  int n = GetParam();
  Rng rng(n);
  CorePeripheryParams params;
  params.num_vertices = n;
  params.core_size = std::max(2, n / 5);
  Graph g = GenerateCorePeriphery(params, rng);
  EXPECT_TRUE(IsWeaklyConnected(g));
  for (auto [u, v] : g.Edges()) {
    EXPECT_TRUE(g.HasEdge(v, u));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CorePeripherySizeTest, ::testing::Values(10, 20, 50, 100, 200));

}  // namespace
}  // namespace dstress::graph
