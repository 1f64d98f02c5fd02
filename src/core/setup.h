// Trusted-party setup (paper §3.4).
//
// Before a graph can be processed, an offline trusted party (e.g. the
// Federal Reserve in the systemic-risk deployment):
//
//  1. collects each node's public ElGamal keys (L of them, one per message
//     bit — the Kurosawa optimization) and D secret neighbor keys;
//  2. assigns every node i a block B_i of k+1 nodes including i (random
//     membership prevents Sybil-packed blocks), plus the aggregation
//     block(s);
//  3. issues, for each node j and each of its in-edge slots d, a block
//     certificate: B_j's member public keys re-randomized with j's d-th
//     neighbor key. Node j hands the certificate to the in-neighbor using
//     slot d, which distributes it to its own block members.
//
// The TP never learns the topology: it hands node j D certificates
// regardless of j's real degree (unused ones are discarded). In this
// simulation the setup object is constructed centrally and the runtime
// accesses exactly the fields each role would hold; the TP's signatures are
// modeled by provenance.
//
// Every PRG draw (the secret keys, the blocks, the neighbor keys) happens on
// the calling thread, in one fixed order. The EC work runs on a worker
// pool: one task per node computes its public keys, then one task per
// certificate blinds a block's keys in one lockstep walk. Each task writes
// only its own slot, so the output is the same byte for byte at every pool
// size.
#ifndef SRC_CORE_SETUP_H_
#define SRC_CORE_SETUP_H_

#include <map>
#include <utility>
#include <vector>

#include "src/core/worker_pool.h"
#include "src/crypto/chacha20.h"
#include "src/graph/graph.h"
#include "src/transfer/transfer.h"

namespace dstress::core {

struct SetupConfig {
  int num_nodes = 0;
  int block_size = 8;  // k+1
  int message_bits = 12;
  uint64_t seed = 1;
};

struct TrustedSetup {
  // blocks[v] = node ids of B_v; blocks[v][0] == v.
  std::vector<std::vector<int>> blocks;
  // Root aggregation block B_A.
  std::vector<int> aggregation_block;
  // Identity key material: node_keys[node] holds that node's L key pairs.
  // (Each node would of course only hold its own entry; the runtime indexes
  // this per role.)
  std::vector<transfer::MemberKeys> node_keys;
  // neighbor_keys[j][d]: node j's secret neighbor key for in-edge slot d.
  std::vector<std::vector<crypto::U256>> neighbor_keys;
  // Certificate held by the members of B_i for the directed edge (i, j):
  // B_j's member keys blinded with j's neighbor key for i's slot.
  std::map<std::pair<int, int>, transfer::BlockCertificate> edge_certificates;

  // Picks a fresh random block of `block_size` nodes (used for aggregation
  // tree levels).
  std::vector<int> MakeExtraBlock(crypto::ChaCha20Prg& prg) const;

  int block_size = 0;
  int num_nodes = 0;
  int message_bits = 0;
};

TrustedSetup RunTrustedSetup(const SetupConfig& config, const graph::Graph& graph,
                             WorkerPool& pool);

}  // namespace dstress::core

#endif  // SRC_CORE_SETUP_H_
