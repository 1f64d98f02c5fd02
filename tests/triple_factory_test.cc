// Tests for the node-pair OT triple factory (src/mpc/triple_factory.h):
// share-relation correctness over randomized demand corpora, disjoint
// deterministic view slices, deadlock-freedom under the tournament order
// with mixed batch sizes, the O(roles x peers) -> O(node pairs) base-OT
// dedup, and the fidelity contract — pipelined == unpipelined runs bit for
// bit, and online traffic pinned to the retired per-role path's digest.
#include "src/mpc/triple_factory.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/vertex_program.h"
#include "src/graph/graph.h"
#include "src/net/transport_spec.h"
#include "src/ot/base_ot.h"
#include "tests/fidelity_digest.h"

namespace dstress::mpc {
namespace {

// XOR-combines every member's share of one draw and checks c = a AND b.
void ExpectTripleRelation(const std::vector<BitTriples>& member_shares) {
  ASSERT_FALSE(member_shares.empty());
  const size_t count = member_shares[0].count;
  const size_t words = PackedWords(count);
  PackedBits a(words, 0), b(words, 0), c(words, 0);
  for (const BitTriples& t : member_shares) {
    ASSERT_EQ(t.count, count);
    for (size_t w = 0; w < words; w++) {
      a[w] ^= t.a[w];
      b[w] ^= t.b[w];
      c[w] ^= t.c[w];
    }
  }
  for (size_t i = 0; i < count; i++) {
    ASSERT_EQ(GetBit(c, i), GetBit(a, i) && GetBit(b, i)) << "triple " << i;
  }
}

void ExpectSameTriples(const BitTriples& x, const BitTriples& y) {
  ASSERT_EQ(x.count, y.count);
  for (size_t i = 0; i < x.count; i++) {
    ASSERT_EQ(GetBit(x.a, i), GetBit(y.a, i)) << "a bit " << i;
    ASSERT_EQ(GetBit(x.b, i), GetBit(y.b, i)) << "b bit " << i;
    ASSERT_EQ(GetBit(x.c, i), GetBit(y.c, i)) << "c bit " << i;
  }
}

TEST(TripleFactoryTest, TriplesSatisfyRelationAcrossBlockSizes) {
  // Randomized corpus: per block size, several waves of varying counts
  // (word-aligned and not) over blocks carved out of a 9-node transport.
  // The odd sizes give one node a bye in every tournament round.
  for (int block_size : {2, 3, 4, 5, 8}) {
    auto net = net::MakeTransport(net::SimTransportSpec(), 9);
    TripleFactoryOptions options;
    options.prg_seed = 0x5eed0000 + block_size;
    // Synchronous mode so the stats assertions below are exact; the
    // dispatcher path is exercised by the mixed-batch and runtime tests.
    options.pipeline = false;
    TripleFactory factory(net.get(), options);

    std::vector<int> parties;
    for (int i = 0; i < block_size; i++) {
      parties.push_back(i);
    }
    const std::vector<size_t> wave_counts = {3, 64, 130, 17};
    for (size_t wave = 0; wave < wave_counts.size(); wave++) {
      std::vector<TripleDemand> demands;
      demands.push_back({/*tag=*/7, parties, wave_counts[wave]});
      factory.Enqueue(std::move(demands));
      std::vector<BitTriples> shares;
      for (int m = 0; m < block_size; m++) {
        shares.push_back(factory.ViewFor(7, m)->Generate(wave_counts[wave]));
      }
      ExpectTripleRelation(shares);
    }
    TripleFactoryStats stats = factory.stats();
    EXPECT_EQ(stats.waves, wave_counts.size());
    EXPECT_EQ(stats.pair_sessions,
              static_cast<uint64_t>(block_size * (block_size - 1) / 2));
  }
}

TEST(TripleFactoryTest, ViewsAreDisjointDeterministicSlices) {
  // Same seed, same wave: drawing 30 + 70 must yield exactly the bits of
  // one 100-triple draw, split at 30 — views are cursors over one stream,
  // not independent generators.
  auto make_run = [](const std::vector<size_t>& draws) {
    auto net = net::MakeTransport(net::SimTransportSpec(), 4);
    TripleFactoryOptions options;
    options.prg_seed = 42;
    options.pipeline = false;
    TripleFactory factory(net.get(), options);
    factory.Enqueue({{/*tag=*/3, {0, 1, 2}, 100}});
    std::vector<std::vector<BitTriples>> per_member(3);
    for (int m = 0; m < 3; m++) {
      for (size_t d : draws) {
        per_member[m].push_back(factory.ViewFor(3, m)->Generate(d));
      }
    }
    return per_member;
  };
  auto split = make_run({30, 70});
  auto whole = make_run({100});
  for (int m = 0; m < 3; m++) {
    BitTriples rejoined = split[m][0];
    size_t words = PackedWords(100);
    rejoined.a.resize(words, 0);
    rejoined.b.resize(words, 0);
    rejoined.c.resize(words, 0);
    for (size_t i = 0; i < 70; i++) {
      SetBit(rejoined.a, 30 + i, GetBit(split[m][1].a, i));
      SetBit(rejoined.b, 30 + i, GetBit(split[m][1].b, i));
      SetBit(rejoined.c, 30 + i, GetBit(split[m][1].c, i));
    }
    rejoined.count = 100;
    ExpectSameTriples(rejoined, whole[m][0]);
  }
  // And the slices themselves form valid triples.
  ExpectTripleRelation({split[0][0], split[1][0], split[2][0]});
  ExpectTripleRelation({split[0][1], split[1][1], split[2][1]});
}

TEST(TripleFactoryTest, MixedBatchSizesUnderTournamentOrderComplete) {
  // One wave of overlapping blocks with very different counts: every
  // co-occurring pair runs one bulk extend over its shared segments, and
  // the circle-method schedule must complete without deadlock (a hang here
  // trips the ctest timeout). Two waves reuse the pair sessions.
  auto net = net::MakeTransport(net::SimTransportSpec(), 8);
  TripleFactoryOptions options;
  options.prg_seed = 99;
  options.pipeline = true;
  TripleFactory factory(net.get(), options);

  const std::vector<TripleDemand> wave = {
      {/*tag=*/0, {0, 1, 2, 3, 4}, 129},
      {/*tag=*/1, {2, 5, 6}, 5},
      {/*tag=*/2, {1, 6, 7}, 64},
      {/*tag=*/3, {0, 7}, 1},
  };
  std::set<std::pair<int, int>> pairs;
  for (const TripleDemand& d : wave) {
    for (size_t i = 0; i < d.parties.size(); i++) {
      for (size_t j = i + 1; j < d.parties.size(); j++) {
        pairs.insert({std::min(d.parties[i], d.parties[j]),
                      std::max(d.parties[i], d.parties[j])});
      }
    }
  }
  uint64_t base_ots_before = ot::BaseOtExecutionCount();
  for (int repeat = 0; repeat < 2; repeat++) {
    factory.Enqueue(std::vector<TripleDemand>(wave));
    for (const TripleDemand& d : wave) {
      std::vector<BitTriples> shares;
      for (size_t m = 0; m < d.parties.size(); m++) {
        shares.push_back(factory.ViewFor(d.tag, static_cast<int>(m))->Generate(d.count));
      }
      ExpectTripleRelation(shares);
    }
  }
  // Base OTs paid once per co-occurring node pair (4 executions each: two
  // IKNP directions x two endpoints), not once per wave or per role.
  EXPECT_EQ(ot::BaseOtExecutionCount() - base_ots_before, 4 * pairs.size());
  EXPECT_EQ(factory.stats().pair_sessions, pairs.size());
}

// --- runtime-level fidelity and dedup --------------------------------------

core::VertexProgram MakeSumProgram(int degree_bound, int iterations) {
  core::VertexProgram program;
  program.state_bits = 16;
  program.message_bits = 8;
  program.degree_bound = degree_bound;
  program.iterations = iterations;
  program.aggregate_bits = 24;
  program.output_noise.alpha = 1e-12;
  program.output_noise.magnitude_bits = 8;
  program.output_noise.threshold_bits = 10;
  program.build_update = [](circuit::Builder& b, const circuit::Word& state,
                            const std::vector<circuit::Word>& in_msgs,
                            circuit::Word* new_state, std::vector<circuit::Word>* out_msgs) {
    circuit::Word seed(state.begin(), state.begin() + 8);
    circuit::Word acc(state.begin() + 8, state.end());
    for (const auto& msg : in_msgs) {
      acc = b.Add(acc, msg);
    }
    *new_state = seed;
    new_state->insert(new_state->end(), acc.begin(), acc.end());
    out_msgs->assign(in_msgs.size(), seed);
  };
  program.build_contribution = [](circuit::Builder& b,
                                  const circuit::Word& state) -> circuit::Word {
    return b.ZeroExtend(circuit::Word(state.begin() + 8, state.end()), 24);
  };
  return program;
}

graph::Graph Ring(int n) {
  graph::Graph g(n);
  for (int v = 0; v < n; v++) {
    g.AddEdge(v, (v + 1) % n);
  }
  return g;
}

std::vector<mpc::BitVector> RingStates(int n) {
  std::vector<mpc::BitVector> states;
  for (int v = 0; v < n; v++) {
    states.push_back(mpc::WordToBits(10 + v, 16));
  }
  return states;
}

core::RuntimeConfig OtConfig(bool ot_prefetch) {
  core::RuntimeConfig config;
  config.block_size = 3;
  config.seed = 11;
  config.use_ot_triples = true;
  config.ot_prefetch = ot_prefetch;
  return config;
}

// Per-node TrafficStats of the online phase: every session outside the
// offline namespace 8, which carries all OT-triple generation.
class OnlineTrafficMeter : public net::NetworkObserver {
 public:
  void OnSend(net::NodeId from, net::NodeId, net::SessionId session,
              const Bytes& payload) override {
    if ((session >> 60) == 8) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[from].bytes_sent += payload.size();
    nodes_[from].messages_sent += 1;
  }
  void OnRecv(net::NodeId to, net::NodeId, net::SessionId session,
              const Bytes& payload) override {
    if ((session >> 60) == 8) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    nodes_[to].bytes_received += payload.size();
    nodes_[to].messages_received += 1;
  }

  net::TrafficStats Node(net::NodeId node) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = nodes_.find(node);
    return it == nodes_.end() ? net::TrafficStats{} : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<net::NodeId, net::TrafficStats> nodes_;
};

TEST(TripleFactoryTest, PipelinedRunMatchesUnpipelinedRunExactly) {
  // The offline/online pipeline must be a pure latency optimization:
  // released figure, full per-node TrafficStats and metered triple demand
  // identical whether waves are generated ahead on the dispatcher or
  // synchronously at enqueue.
  constexpr int kN = 5;
  graph::Graph g = Ring(kN);
  core::VertexProgram program = MakeSumProgram(1, 2);

  core::Runtime pipelined(OtConfig(/*ot_prefetch=*/true), g, program);
  core::Runtime unpipelined(OtConfig(/*ot_prefetch=*/false), g, program);
  core::RunMetrics mp, mu;
  int64_t released_p = pipelined.Run(RingStates(kN), &mp);
  int64_t released_u = unpipelined.Run(RingStates(kN), &mu);

  EXPECT_EQ(released_p, released_u);
  EXPECT_EQ(mp.triples_consumed, mu.triples_consumed);
  EXPECT_EQ(mp.base_ot_executions, mu.base_ot_executions);
  for (int node = 0; node < kN; node++) {
    net::TrafficStats sp = pipelined.network().NodeStats(node);
    net::TrafficStats su = unpipelined.network().NodeStats(node);
    EXPECT_EQ(sp.bytes_sent, su.bytes_sent) << "node " << node;
    EXPECT_EQ(sp.bytes_received, su.bytes_received) << "node " << node;
    EXPECT_EQ(sp.messages_sent, su.messages_sent) << "node " << node;
    EXPECT_EQ(sp.messages_received, su.messages_received) << "node " << node;
  }
}

// The run surface both OT digests share: released figure, iteration count,
// triples consumed and GMW rounds.
FidelityDigest RunDigest(int64_t released, const core::RunMetrics& m) {
  FidelityDigest digest;
  digest.Add(static_cast<uint64_t>(released))
      .Add(static_cast<uint64_t>(m.iterations))
      .Add(m.triples_consumed)
      .Add(m.update_rounds);
  return digest;
}

// Golden digests for the ring below. The online one was captured from the
// retired per-role OtTripleSource path and equalled the factory's there;
// the per-role path's offline traffic never matched the factory's, so the
// full-traffic one was captured from the factory itself.
constexpr char kOnlineDigest[] =
    "f6f36a0d877274618cbd5d19bb74f282d705ea7127bac92086996b2afdcc06c9";
constexpr char kFactoryDigest[] =
    "7bdefcd917d46db34721eeac14bdabcd960f63c25b3d95388be883e905b99c20";

TEST(TripleFactoryTest, FactoryMatchesPerRoleDigestAndDedupsBaseOts) {
  constexpr int kN = 5;
  graph::Graph g = Ring(kN);
  core::VertexProgram program = MakeSumProgram(1, 2);

  core::Runtime factory(OtConfig(/*ot_prefetch=*/true), g, program);
  OnlineTrafficMeter meter;
  factory.AttachObserver(&meter);
  core::RunMetrics m;
  int64_t released = factory.Run(RingStates(kN), &m);

  // Online phase: released figure and per-node traffic outside the offline
  // namespace, bit-identical to the per-role baseline.
  FidelityDigest online = RunDigest(released, m);
  online.Add(kN);
  for (int node = 0; node < kN; node++) {
    online.AddStats(meter.Node(node));
  }
  ExpectGoldenDigest(online.Hex(), kOnlineDigest, "online");
  // The whole run, factory traffic included.
  ExpectGoldenDigest(RunDigest(released, m).AddTraffic(factory.network()).Hex(), kFactoryDigest,
                     "factory full");

  // Base OTs: 4 executions (two IKNP directions x two endpoints) per
  // distinct node pair co-occurring in any block, where the per-role path
  // paid C(k+1, 2) pairwise setups per role group.
  std::set<std::pair<int, int>> node_pairs;
  auto add_block = [&](const std::vector<int>& block) {
    for (size_t i = 0; i < block.size(); i++) {
      for (size_t j = i + 1; j < block.size(); j++) {
        node_pairs.insert({std::min(block[i], block[j]), std::max(block[i], block[j])});
      }
    }
  };
  for (int v = 0; v < kN; v++) {
    add_block(factory.setup().blocks[v]);
  }
  add_block(factory.setup().aggregation_block);
  EXPECT_EQ(m.base_ot_executions, 4 * node_pairs.size());
  // The factory overlaps offline generation with the online phase; its
  // metrics must surface that work.
  EXPECT_GT(m.offline_seconds, 0.0);
}

}  // namespace
}  // namespace dstress::mpc
