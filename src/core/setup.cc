#include "src/core/setup.h"

#include "src/common/check.h"

namespace dstress::core {

namespace {

// Random block containing `anchor` (at position 0) plus block_size-1 other
// distinct nodes.
std::vector<int> PickBlock(int anchor, int num_nodes, int block_size, crypto::ChaCha20Prg& prg) {
  DSTRESS_CHECK(block_size <= num_nodes);
  std::vector<int> members;
  members.reserve(block_size);
  if (anchor >= 0) {
    members.push_back(anchor);
  }
  while (static_cast<int>(members.size()) < block_size) {
    int candidate = static_cast<int>(prg.NextBelow(static_cast<uint64_t>(num_nodes)));
    bool duplicate = false;
    for (int m : members) {
      if (m == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      members.push_back(candidate);
    }
  }
  return members;
}

}  // namespace

std::vector<int> TrustedSetup::MakeExtraBlock(crypto::ChaCha20Prg& prg) const {
  return PickBlock(-1, num_nodes, block_size, prg);
}

TrustedSetup RunTrustedSetup(const SetupConfig& config, const graph::Graph& graph,
                             WorkerPool& pool) {
  DSTRESS_CHECK(config.num_nodes == graph.num_vertices());
  DSTRESS_CHECK(config.block_size >= 2 && config.block_size <= config.num_nodes);

  TrustedSetup setup;
  setup.block_size = config.block_size;
  setup.num_nodes = config.num_nodes;
  setup.message_bits = config.message_bits;

  auto prg = crypto::ChaCha20Prg::FromSeed(config.seed, /*stream_id=*/0x5e79);
  // Identity keys: L key pairs per node, the secrets drawn as ElGamalKeyGen
  // draws them; the public keys follow on the pool.
  setup.node_keys.resize(config.num_nodes);
  for (auto& node : setup.node_keys) {
    node.keys.resize(config.message_bits);
    for (auto& kp : node.keys) {
      kp.secret = prg.NextScalar(crypto::CurveOrder());
    }
  }

  // Blocks: B_v contains v plus block_size-1 random distinct nodes.
  setup.blocks.reserve(config.num_nodes);
  for (int v = 0; v < config.num_nodes; v++) {
    setup.blocks.push_back(PickBlock(v, config.num_nodes, config.block_size, prg));
  }
  setup.aggregation_block = PickBlock(-1, config.num_nodes, config.block_size, prg);

  // Neighbor keys: one per in-edge slot of each node. (The paper issues a
  // full set of D keys per node; keys for unused slots would simply never
  // be exercised, so we materialize only the in-degree many.)
  setup.neighbor_keys.resize(config.num_nodes);
  for (int j = 0; j < config.num_nodes; j++) {
    int slots = graph.InDegree(j);
    setup.neighbor_keys[j].reserve(slots);
    for (int d = 0; d < slots; d++) {
      setup.neighbor_keys[j].push_back(prg.NextScalar(crypto::CurveOrder()));
    }
  }

  pool.Run(setup.node_keys.size(), [&](size_t node) {
    for (auto& kp : setup.node_keys[node].keys) {
      kp.pub.point = crypto::MulBase(kp.secret);
    }
  });

  // Edge certificates: for edge (i, j) at j's in-slot d, blind B_j's member
  // public keys with neighbor key n^j_d.
  struct Slot {
    int i, j, d;
  };
  std::vector<Slot> slots;
  for (int j = 0; j < config.num_nodes; j++) {
    const auto& in_neighbors = graph.InNeighbors(j);
    for (size_t d = 0; d < in_neighbors.size(); d++) {
      slots.push_back(Slot{in_neighbors[d], j, static_cast<int>(d)});
    }
  }
  std::vector<transfer::BlockCertificate> certificates(slots.size());
  pool.Run(slots.size(), [&](size_t s) {
    const int j = slots[s].j;
    transfer::BlockPublicKeys publics;
    publics.reserve(config.block_size);
    for (int member : setup.blocks[j]) {
      std::vector<crypto::ElGamalPublicKey> row;
      row.reserve(config.message_bits);
      for (const auto& kp : setup.node_keys[member].keys) {
        row.push_back(kp.pub);
      }
      publics.push_back(std::move(row));
    }
    certificates[s] = transfer::MakeBlockCertificate(publics, setup.neighbor_keys[j][slots[s].d]);
  });
  for (size_t s = 0; s < slots.size(); s++) {
    setup.edge_certificates.emplace(std::make_pair(slots[s].i, slots[s].j),
                                    std::move(certificates[s]));
  }
  return setup;
}

}  // namespace dstress::core
