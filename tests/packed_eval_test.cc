// Packed-share data plane tests (docs/packed-eval.md): the bitsliced
// representations and batched evaluation paths must be bit-identical to the
// per-instance seed paths on an adversarial corpus of random circuits.
//
//  * PackedShareMatrix round-trips the column representation.
//  * EvalPlan::EvalPacked (word-parallel cleartext) == Circuit::Eval per
//    instance, for batch widths around the word boundaries.
//  * EvalBlock over W instances == W one-instance EvalBlock calls ==
//    Circuit::Eval on reconstructed outputs, same widths, with the wide
//    call's per-node traffic equal to the sum of the one-instance calls';
//    the one-thread-per-party mode of EvalBatchInstances agrees with both.
//  * The multi-node single-scheduler mode of EvalBatchInstances (many
//    executing nodes, heterogeneous circuits, one thread) matches cleartext.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "src/circuit/circuit.h"
#include "src/circuit/eval_plan.h"
#include "src/common/rng.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/packed.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"

namespace dstress::mpc {
namespace {

using circuit::Circuit;
using circuit::EvalPlan;
using circuit::Gate;
using circuit::GateOp;
using circuit::Wire;

// Random topologically ordered circuit: `inputs` input gates followed by
// `body` random gates over earlier wires, with random output taps. The mix
// leans on XOR/AND so both the free and the interactive paths get depth.
Circuit RandomCircuit(uint64_t seed, int inputs, int body) {
  Rng rng(seed);
  std::vector<Gate> gates;
  for (int i = 0; i < inputs; i++) {
    gates.push_back({GateOp::kInput, 0, 0});
  }
  for (int i = 0; i < body; i++) {
    Wire a = static_cast<Wire>(rng.Below(gates.size()));
    Wire b = static_cast<Wire>(rng.Below(gates.size()));
    switch (rng.Below(8)) {
      case 0:
        gates.push_back({GateOp::kConst, static_cast<Wire>(rng.Below(2)), 0});
        break;
      case 1:
        gates.push_back({GateOp::kNot, a, 0});
        break;
      case 2:
      case 3:
      case 4:
        gates.push_back({GateOp::kXor, a, b});
        break;
      default:
        gates.push_back({GateOp::kAnd, a, b});
        break;
    }
  }
  std::vector<Wire> outputs;
  int num_outputs = 1 + static_cast<int>(rng.Below(24));
  for (int i = 0; i < num_outputs; i++) {
    outputs.push_back(static_cast<Wire>(rng.Below(gates.size())));
  }
  return Circuit(std::move(gates), std::move(outputs), inputs);
}

std::vector<BitVector> RandomInstances(uint64_t seed, size_t bits, size_t count) {
  Rng rng(seed);
  std::vector<BitVector> out(count, BitVector(bits));
  for (auto& inst : out) {
    for (auto& bit : inst) {
      bit = rng.Below(2) ? 1 : 0;
    }
  }
  return out;
}

TEST(PackedShareMatrixTest, RoundTripsInstances) {
  auto instances = RandomInstances(7, 133, 70);
  PackedShareMatrix m = PackedShareMatrix::FromInstances(instances);
  EXPECT_EQ(m.rows(), 133u);
  EXPECT_EQ(m.instances(), 70u);
  EXPECT_EQ(m.words_per_row(), 2u);
  EXPECT_EQ(m.ToInstances(), instances);
  // Column writes land in the right lanes.
  PackedShareMatrix n(133, 70);
  for (size_t j = 0; j < instances.size(); j++) {
    n.SetInstance(j, instances[j]);
  }
  for (size_t j = 0; j < instances.size(); j++) {
    EXPECT_EQ(n.Instance(j), instances[j]) << j;
  }
}

TEST(EvalPlanTest, PackedClearTextMatchesEvalOnRandomCorpus) {
  for (uint64_t seed = 1; seed <= 12; seed++) {
    Circuit circuit = RandomCircuit(seed, 8 + seed % 13, 60 + 20 * (seed % 5));
    EvalPlan plan(circuit);
    for (size_t width : {1u, 3u, 64u, 130u}) {
      auto instances = RandomInstances(seed * 100 + width, circuit.num_inputs(), width);
      size_t wpr = (width + 63) / 64;
      std::vector<uint64_t> inputs(circuit.num_inputs() * wpr, 0);
      for (size_t j = 0; j < width; j++) {
        for (size_t i = 0; i < circuit.num_inputs(); i++) {
          if (instances[j][i] & 1) {
            inputs[i * wpr + j / 64] |= 1ULL << (j % 64);
          }
        }
      }
      std::vector<uint64_t> outputs(circuit.num_outputs() * wpr);
      plan.EvalPacked(inputs.data(), wpr, outputs.data());
      for (size_t j = 0; j < width; j++) {
        BitVector expect = circuit.Eval(instances[j]);
        for (size_t o = 0; o < circuit.num_outputs(); o++) {
          EXPECT_EQ((outputs[o * wpr + j / 64] >> (j % 64)) & 1, expect[o])
              << "seed " << seed << " width " << width << " instance " << j << " output " << o;
        }
      }
    }
  }
}

// Reconstructed outputs per instance and every node's traffic of one
// block evaluation.
struct BlockRun {
  std::vector<BitVector> opened;
  std::vector<net::TrafficStats> traffic;
};

// Shares every instance across `parties` parties and evaluates them all
// on a fresh sim transport with dealer triples: in one EvalBlock call, or
// (threaded) with each party's own EvalBatchInstances call on its own
// thread, the one-thread-per-party mode of batch_eval.h.
BlockRun RunBlock(const Circuit& circuit, const std::vector<BitVector>& instances, int parties,
                  uint64_t seed, bool threaded) {
  EvalPlan plan(circuit);
  auto net = net::MakeSimTransport(parties);
  auto prg = crypto::ChaCha20Prg::FromSeed(seed);
  std::vector<std::vector<BitVector>> shares;  // [instance][party]
  for (const BitVector& instance : instances) {
    shares.push_back(ShareBits(instance, parties, prg));
  }
  std::vector<net::NodeId> ids(parties);
  std::vector<DealerTripleSource> dealers;
  dealers.reserve(parties);  // `sources` points into it
  std::vector<TripleSource*> sources;
  for (int p = 0; p < parties; p++) {
    ids[p] = p;
    sources.push_back(&dealers.emplace_back(p, parties, seed ^ 0x5eedULL));
  }
  const size_t num_and = circuit.stats().num_and;
  const size_t width = instances.size();
  std::vector<std::vector<BitVector>> outputs;  // [instance][party]
  if (threaded) {
    outputs.assign(width, std::vector<BitVector>(parties));
    std::vector<std::thread> threads;
    for (int p = 0; p < parties; p++) {
      threads.emplace_back([&, p] {
        std::vector<BatchInstance> items(width);
        for (size_t j = 0; j < width; j++) {
          items[j].plan = &plan;
          items[j].parties = ids;
          items[j].my_index = p;
          if (num_and > 0) {
            items[j].triples = sources[p]->Generate(num_and);
          }
          items[j].input_shares = shares[j][p];
          items[j].order_key = j;
        }
        BatchStats stats;
        std::vector<BitVector> mine =
            EvalBatchInstances(net.get(), /*session=*/0, std::move(items), &stats);
        EXPECT_EQ(stats.rounds, circuit.stats().and_depth);
        EXPECT_EQ(stats.triples_consumed, num_and * width);
        for (size_t j = 0; j < width; j++) {
          outputs[j][p] = std::move(mine[j]);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  } else {
    BatchStats stats;
    outputs = EvalBlock(net.get(), /*session=*/0, plan, ids, shares, sources, &stats);
    EXPECT_EQ(stats.rounds, circuit.stats().and_depth);
    EXPECT_EQ(stats.triples_consumed, num_and * width * parties);
  }
  BlockRun run;
  for (const std::vector<BitVector>& instance_outputs : outputs) {
    run.opened.push_back(ReconstructBits(instance_outputs));
  }
  for (int v = 0; v < parties; v++) {
    run.traffic.push_back(net->NodeStats(v));
  }
  return run;
}

auto TrafficKey(const net::TrafficStats& t) {
  return std::make_tuple(t.bytes_sent, t.bytes_received, t.messages_sent, t.messages_received);
}

TEST(EvalBlockTest, BitIdenticalToPerInstanceEvalOnRandomCorpus) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    Circuit circuit = RandomCircuit(seed * 31, 10, 90);
    int parties = 2 + static_cast<int>(seed % 3);
    for (size_t width : {1u, 3u, 64u, 130u}) {
      auto instances = RandomInstances(seed * 1000 + width, circuit.num_inputs(), width);
      BlockRun wide = RunBlock(circuit, instances, parties, seed, /*threaded=*/false);
      BlockRun threaded = RunBlock(circuit, instances, parties, seed, /*threaded=*/true);
      std::vector<net::TrafficStats> summed(parties);
      for (size_t j = 0; j < width; j++) {
        BlockRun solo = RunBlock(circuit, {instances[j]}, parties, seed + j, /*threaded=*/false);
        EXPECT_EQ(solo.opened[0], circuit.Eval(instances[j]))
            << "seed " << seed << " width " << width << " instance " << j;
        EXPECT_EQ(wide.opened[j], solo.opened[0])
            << "seed " << seed << " width " << width << " instance " << j;
        EXPECT_EQ(threaded.opened[j], solo.opened[0])
            << "seed " << seed << " width " << width << " instance " << j;
        for (int v = 0; v < parties; v++) {
          summed[v].bytes_sent += solo.traffic[v].bytes_sent;
          summed[v].bytes_received += solo.traffic[v].bytes_received;
          summed[v].messages_sent += solo.traffic[v].messages_sent;
          summed[v].messages_received += solo.traffic[v].messages_received;
        }
      }
      for (int v = 0; v < parties; v++) {
        EXPECT_EQ(TrafficKey(wide.traffic[v]), TrafficKey(summed[v]))
            << "seed " << seed << " width " << width << " node " << v;
        EXPECT_EQ(TrafficKey(threaded.traffic[v]), TrafficKey(wide.traffic[v]))
            << "seed " << seed << " width " << width << " node " << v;
      }
    }
  }
}

// The runtime's single-scheduler mode: one thread, many executing nodes,
// two different circuits in one lockstep call. Every receive must be
// satisfied by a send earlier in the same round — the call would hang
// otherwise, so passing at all is half the assertion.
TEST(EvalBatchInstancesTest, SingleThreadMultiNodeHeterogeneousCircuits) {
  Circuit big = RandomCircuit(71, 12, 140);
  Circuit small = RandomCircuit(72, 6, 40);
  EvalPlan big_plan(big);
  EvalPlan small_plan(small);

  const int num_nodes = 6;
  auto net = net::MakeSimTransport(num_nodes);
  auto prg = crypto::ChaCha20Prg::FromSeed(99);

  struct Spec {
    const Circuit* circuit;
    const EvalPlan* plan;
    std::vector<net::NodeId> parties;
    uint64_t key;
  };
  std::vector<Spec> specs = {
      {&big, &big_plan, {0, 2, 4}, 0},
      {&big, &big_plan, {1, 3, 5}, 1},
      {&big, &big_plan, {5, 0, 3, 2}, 2},
      {&small, &small_plan, {2, 1}, 3},
      {&small, &small_plan, {4, 5, 0, 1, 3}, 4},
  };

  std::vector<BitVector> plain_inputs;
  std::vector<mpc::BatchInstance> items;
  std::vector<size_t> item_spec;  // which spec each item belongs to
  for (size_t s = 0; s < specs.size(); s++) {
    const Spec& spec = specs[s];
    BitVector input = RandomInstances(500 + s, spec.circuit->num_inputs(), 1)[0];
    plain_inputs.push_back(input);
    auto shares = ShareBits(input, static_cast<int>(spec.parties.size()), prg);
    for (size_t p = 0; p < spec.parties.size(); p++) {
      DealerTripleSource triples(static_cast<int>(p), static_cast<int>(spec.parties.size()),
                                 1234 + s);
      mpc::BatchInstance item;
      item.plan = spec.plan;
      item.parties = spec.parties;
      item.my_index = static_cast<int>(p);
      item.triples = triples.Generate(spec.circuit->stats().num_and);
      item.input_shares = shares[p];
      item.order_key = spec.key;
      items.push_back(std::move(item));
      item_spec.push_back(s);
    }
  }

  BatchStats stats;
  std::vector<BitVector> outputs =
      EvalBatchInstances(net.get(), /*session=*/0, std::move(items), &stats);
  EXPECT_EQ(stats.rounds,
            std::max(big.stats().and_depth, small.stats().and_depth));

  // Reconstruct each spec's outputs from its parties' shares.
  for (size_t s = 0; s < specs.size(); s++) {
    std::vector<BitVector> shares;
    for (size_t i = 0; i < outputs.size(); i++) {
      if (item_spec[i] == s) {
        shares.push_back(outputs[i]);
      }
    }
    EXPECT_EQ(ReconstructBits(shares), specs[s].circuit->Eval(plain_inputs[s])) << "spec " << s;
  }
}

}  // namespace
}  // namespace dstress::mpc
