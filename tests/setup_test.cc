#include "src/core/setup.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/engine/run_spec.h"
#include "src/graph/generators.h"
#include "tests/fidelity_digest.h"

namespace dstress::core {
namespace {

graph::Graph Ring(int n) {
  graph::Graph g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g;
}

SetupConfig Config(int n, int block_size, uint64_t seed = 1) {
  SetupConfig config;
  config.num_nodes = n;
  config.block_size = block_size;
  config.message_bits = 4;
  config.seed = seed;
  return config;
}

TrustedSetup RunSetup(const SetupConfig& config, const graph::Graph& g, int threads = 4) {
  WorkerPool pool(threads);
  return RunTrustedSetup(config, g, pool);
}

TEST(TrustedSetupTest, BlocksContainSelfAndDistinctMembers) {
  graph::Graph g = Ring(12);
  TrustedSetup setup = RunSetup(Config(12, 5), g);
  ASSERT_EQ(setup.blocks.size(), 12u);
  for (int v = 0; v < 12; v++) {
    const auto& block = setup.blocks[v];
    ASSERT_EQ(block.size(), 5u);
    EXPECT_EQ(block[0], v) << "anchor must coordinate its own block";
    std::set<int> distinct(block.begin(), block.end());
    EXPECT_EQ(distinct.size(), block.size()) << "duplicate member in B_" << v;
    for (int m : block) {
      EXPECT_GE(m, 0);
      EXPECT_LT(m, 12);
    }
  }
}

TEST(TrustedSetupTest, EveryNodeHasLKeyPairs) {
  graph::Graph g = Ring(6);
  TrustedSetup setup = RunSetup(Config(6, 3), g);
  ASSERT_EQ(setup.node_keys.size(), 6u);
  std::set<std::string> all_points;
  for (const auto& member : setup.node_keys) {
    ASSERT_EQ(member.keys.size(), 4u);  // message_bits
    for (const auto& kp : member.keys) {
      auto compressed = kp.pub.point.Compress();
      all_points.insert(std::string(compressed.begin(), compressed.end()));
    }
  }
  EXPECT_EQ(all_points.size(), 6u * 4u) << "key pairs must be unique";
}

TEST(TrustedSetupTest, CertificatesExistExactlyForEdges) {
  Rng rng(4);
  graph::Graph g = graph::GenerateScaleFree(15, 2, rng);
  TrustedSetup setup = RunSetup(Config(15, 4), g);
  size_t expected = 0;
  for (auto [u, v] : g.Edges()) {
    EXPECT_TRUE(setup.edge_certificates.count({u, v})) << u << "->" << v;
    expected++;
  }
  EXPECT_EQ(setup.edge_certificates.size(), expected);
}

TEST(TrustedSetupTest, CertificateKeysAreBlindedPerEdge) {
  // Two in-edges of the same node carry certificates for the same block but
  // blinded with different neighbor keys: no shared points, and none equal
  // to the original public keys.
  graph::Graph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);  // keep every vertex connected
  TrustedSetup setup = RunSetup(Config(4, 2), g);

  const auto& cert_a = setup.edge_certificates.at({0, 2});
  const auto& cert_b = setup.edge_certificates.at({1, 2});
  ASSERT_EQ(cert_a.keys.size(), cert_b.keys.size());
  for (size_t m = 0; m < cert_a.keys.size(); m++) {
    int member = setup.blocks[2][m];
    for (size_t b = 0; b < cert_a.keys[m].size(); b++) {
      EXPECT_NE(cert_a.keys[m][b].point, cert_b.keys[m][b].point);
      EXPECT_NE(cert_a.keys[m][b].point, setup.node_keys[member].keys[b].pub.point);
    }
  }

  // Every key is Appendix A's RandomizeKey of the member key with the
  // neighbor key of the edge's in-slot.
  for (int j = 0; j < 4; j++) {
    const auto& in_neighbors = g.InNeighbors(j);
    for (size_t d = 0; d < in_neighbors.size(); d++) {
      const auto& cert = setup.edge_certificates.at({in_neighbors[d], j});
      ASSERT_EQ(cert.keys.size(), setup.blocks[j].size());
      for (size_t m = 0; m < cert.keys.size(); m++) {
        const auto& member_keys = setup.node_keys[setup.blocks[j][m]].keys;
        ASSERT_EQ(cert.keys[m].size(), member_keys.size());
        for (size_t b = 0; b < member_keys.size(); b++) {
          EXPECT_EQ(cert.keys[m][b].point,
                    crypto::RandomizePublicKey(member_keys[b].pub, setup.neighbor_keys[j][d]).point)
              << "edge " << in_neighbors[d] << "->" << j << " member " << m << " bit " << b;
        }
      }
    }
  }
}

TEST(TrustedSetupTest, NeighborKeyCountMatchesInDegree) {
  Rng rng(9);
  graph::Graph g = graph::GenerateErdosRenyi(10, 0.3, rng);
  TrustedSetup setup = RunSetup(Config(10, 3), g);
  for (int v = 0; v < 10; v++) {
    EXPECT_EQ(setup.neighbor_keys[v].size(), static_cast<size_t>(g.InDegree(v)));
  }
}

TEST(TrustedSetupTest, DeterministicForSeedAndDifferentAcrossSeeds) {
  graph::Graph g = Ring(8);
  TrustedSetup a = RunSetup(Config(8, 3, 7), g);
  TrustedSetup b = RunSetup(Config(8, 3, 7), g);
  TrustedSetup c = RunSetup(Config(8, 3, 8), g);
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.aggregation_block, b.aggregation_block);
  EXPECT_NE(a.blocks, c.blocks);
}

TEST(TrustedSetupTest, ExtraBlocksAreValid) {
  graph::Graph g = Ring(10);
  TrustedSetup setup = RunSetup(Config(10, 4), g);
  auto prg = crypto::ChaCha20Prg::FromSeed(3);
  for (int trial = 0; trial < 5; trial++) {
    auto block = setup.MakeExtraBlock(prg);
    ASSERT_EQ(block.size(), 4u);
    std::set<int> distinct(block.begin(), block.end());
    EXPECT_EQ(distinct.size(), block.size());
  }
}

TEST(TrustedSetupTest, BlockMembershipIsSpreadAcrossNodes) {
  // Random membership: over 40 blocks of size 4 on 40 nodes, no node may
  // monopolize membership (Sybil-resistance sanity, not a strict bound).
  graph::Graph g = Ring(40);
  TrustedSetup setup = RunSetup(Config(40, 4), g);
  std::vector<int> load(40, 0);
  for (const auto& block : setup.blocks) {
    for (int m : block) {
      load[m]++;
    }
  }
  for (int v = 0; v < 40; v++) {
    EXPECT_GE(load[v], 1);   // everyone anchors its own block
    EXPECT_LE(load[v], 16);  // expectation is 4; 16 would be wildly skewed
  }
}

// SHA-256 over everything the trusted party hands out: every node's
// compressed public keys, the blocks, the aggregation block, the neighbor
// keys, and every certificate's serialized keys in map order.
std::string SetupDigest(const TrustedSetup& setup) {
  FidelityDigest digest;
  digest.Add(setup.node_keys.size());
  for (const auto& member : setup.node_keys) {
    digest.Add(member.keys.size());
    for (const auto& kp : member.keys) {
      auto compressed = kp.pub.point.Compress();
      digest.AddBytes(compressed.data(), compressed.size());
    }
  }
  auto add_block = [&](const std::vector<int>& block) {
    digest.Add(block.size());
    for (int m : block) {
      digest.Add(static_cast<uint64_t>(m));
    }
  };
  digest.Add(setup.blocks.size());
  for (const auto& block : setup.blocks) {
    add_block(block);
  }
  add_block(setup.aggregation_block);
  for (const auto& keys : setup.neighbor_keys) {
    digest.Add(keys.size());
    for (const auto& key : keys) {
      uint8_t bytes[32];
      key.ToBytesBe(bytes);
      digest.AddBytes(bytes, sizeof(bytes));
    }
  }
  digest.Add(setup.edge_certificates.size());
  for (const auto& [edge, cert] : setup.edge_certificates) {
    digest.Add(static_cast<uint64_t>(edge.first)).Add(static_cast<uint64_t>(edge.second));
    Bytes raw = cert.Serialize();
    digest.AddBytes(raw.data(), raw.size());
  }
  return digest.Hex();
}

// Pins the setup's output byte for byte: no other test covers certificate
// bytes, and the engine digests (figures and traffic) hold for any correct
// blinding. Captured before the certificates moved to the lockstep walk.
TEST(TrustedSetupTest, SetupMatchesGoldenDigest) {
  SetupConfig ring = Config(8, 3);
  // perfbench secure-sim's shape: core-periphery N = 10, block 4, L = 16.
  graph::Graph core_periphery =
      engine::BuildTopologyGraph(engine::CorePeripheryTopology(10, 3), /*seed=*/1);
  SetupConfig secure_sim;
  secure_sim.num_nodes = 10;
  secure_sim.block_size = 4;
  secure_sim.message_bits = 16;
  secure_sim.seed = 9;
  for (int threads : {1, 4}) {
    const std::string pool = ", pool of " + std::to_string(threads);
    ExpectGoldenDigest(SetupDigest(RunSetup(ring, Ring(8), threads)),
                       "c53a20944a6e91e9029944e5783bec36c841ee4777a9db57c6843805680f489e",
                       "ring 8, block 3, L 4" + pool);
    ExpectGoldenDigest(SetupDigest(RunSetup(secure_sim, core_periphery, threads)),
                       "96aa101ab4ab0519000ad04a459f1596bb4603a91add670d6f673befd1d55cc5",
                       "core-periphery 10, block 4, L 16" + pool);
  }
}

}  // namespace
}  // namespace dstress::core
