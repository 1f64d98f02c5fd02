#include <gtest/gtest.h>

#include <string>

#include "src/baseline/naive_mpc.h"
#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/core/vertex_program.h"
#include "src/finance/eisenberg_noe.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triple_factory.h"
#include "src/mpc/triples.h"
#include "src/net/sim_network.h"
#include "tests/fidelity_digest.h"

namespace dstress::mpc {
namespace {

using circuit::Builder;
using circuit::Circuit;
using circuit::Word;

TEST(SharingTest, ReconstructInvertsShare) {
  auto prg = crypto::ChaCha20Prg::FromSeed(1);
  BitVector bits = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  for (int parties : {1, 2, 3, 7, 20}) {
    auto shares = ShareBits(bits, parties, prg);
    ASSERT_EQ(shares.size(), static_cast<size_t>(parties));
    EXPECT_EQ(ReconstructBits(shares), bits) << parties;
  }
}

TEST(SharingTest, SharesLookRandom) {
  auto prg = crypto::ChaCha20Prg::FromSeed(2);
  BitVector zeros(1000, 0);
  auto shares = ShareBits(zeros, 2, prg);
  // Each individual share of the all-zero vector should be ~half ones.
  int ones = 0;
  for (uint8_t b : shares[0]) {
    ones += b;
  }
  EXPECT_GT(ones, 400);
  EXPECT_LT(ones, 600);
}

TEST(SharingTest, WordConversions) {
  BitVector bits = WordToBits(0xABCD, 16);
  EXPECT_EQ(BitsToWord(bits, 0, 16), 0xABCDu);
  EXPECT_EQ(BitsToWord(bits, 0, 8), 0xCDu);
  EXPECT_EQ(BitsToWord(bits, 8, 8), 0xABu);
  // Signed read: 0xFF00 as 16-bit two's complement is -256.
  EXPECT_EQ(BitsToSignedWord(WordToBits(0xFF00, 16), 0, 16), -256);
  EXPECT_EQ(BitsToSignedWord(WordToBits(0x7FFF, 16), 0, 16), 32767);
}

void CheckTriples(const std::vector<BitTriples>& shares, size_t count) {
  for (size_t t = 0; t < count; t++) {
    int a = 0, b = 0, c = 0;
    for (const auto& share : shares) {
      a ^= GetBit(share.a, t) ? 1 : 0;
      b ^= GetBit(share.b, t) ? 1 : 0;
      c ^= GetBit(share.c, t) ? 1 : 0;
    }
    ASSERT_EQ(c, a & b) << "triple " << t;
  }
}

class DealerTripleTest : public ::testing::TestWithParam<int> {};

TEST_P(DealerTripleTest, TriplesAreValid) {
  int parties = GetParam();
  constexpr size_t kCount = 500;
  std::vector<BitTriples> shares;
  std::vector<DealerTripleSource> sources;
  for (int p = 0; p < parties; p++) {
    sources.emplace_back(p, parties, /*dealer_seed=*/99);
  }
  for (auto& s : sources) {
    shares.push_back(s.Generate(kCount));
  }
  CheckTriples(shares, kCount);
}

TEST_P(DealerTripleTest, SequentialBatchesStayAligned) {
  int parties = GetParam();
  std::vector<DealerTripleSource> sources;
  for (int p = 0; p < parties; p++) {
    sources.emplace_back(p, parties, 7);
  }
  for (size_t batch : {10u, 64u, 65u, 100u}) {
    std::vector<BitTriples> shares;
    for (auto& s : sources) {
      shares.push_back(s.Generate(batch));
    }
    CheckTriples(shares, batch);
  }
}

// Bulk-generation offset regression: a source may be asked for wildly
// different batch sizes call to call. The per-call tape advance must keep
// every party's derivation in sync for any agreed size sequence — checked
// per batch and over the concatenation of all batches.
TEST_P(DealerTripleTest, InterleavedBatchSizesStayAligned) {
  int parties = GetParam();
  std::vector<DealerTripleSource> sources;
  for (int p = 0; p < parties; p++) {
    sources.emplace_back(p, parties, 1234);
  }
  std::vector<BitTriples> all(parties);
  for (size_t batch : {1u, 6500u, 3u, 130u, 64u, 1u}) {
    std::vector<BitTriples> shares;
    for (auto& s : sources) {
      shares.push_back(s.Generate(batch));
    }
    CheckTriples(shares, batch);
    for (int p = 0; p < parties; p++) {
      BitTriples& acc = all[p];
      size_t old = acc.count;
      acc.count += batch;
      acc.a.resize((acc.count + 63) / 64, 0);
      acc.b.resize((acc.count + 63) / 64, 0);
      acc.c.resize((acc.count + 63) / 64, 0);
      for (size_t t = 0; t < batch; t++) {
        SetBit(acc.a, old + t, GetBit(shares[p].a, t));
        SetBit(acc.b, old + t, GetBit(shares[p].b, t));
        if (!shares[p].c.empty()) {
          SetBit(acc.c, old + t, GetBit(shares[p].c, t));
        }
      }
    }
  }
  CheckTriples(all, all[0].count);
}

// Every Generate call must deal from a fresh PRG stream: the per-call
// counter selects a disjoint stream-id range, so no call can replay an
// earlier call's tape (the old per-bit seed perturbation could alias a
// neighboring source's seed).
TEST(DealerTripleSourceTest, FreshCallsUseFreshTape) {
  DealerTripleSource source(0, 3, 42);
  BitTriples first = source.Generate(64);
  BitTriples second = source.Generate(64);
  EXPECT_NE(first.a, second.a);
  EXPECT_NE(first.b, second.b);
}

// SliceTriples must preserve triple validity across arbitrary cut points —
// the factory's views deal their buffered streams out this way.
TEST_P(DealerTripleTest, SlicedBulkBatchesAreValidTriples) {
  int parties = GetParam();
  constexpr size_t kPerInstance = 97;
  constexpr size_t kInstances = 5;
  std::vector<BitTriples> bulk;
  for (int p = 0; p < parties; p++) {
    DealerTripleSource source(p, parties, 77);
    bulk.push_back(source.Generate(kPerInstance * kInstances));
  }
  for (size_t j = 0; j < kInstances; j++) {
    std::vector<BitTriples> slice;
    for (int p = 0; p < parties; p++) {
      slice.push_back(SliceTriples(bulk[p], j * kPerInstance, kPerInstance));
    }
    CheckTriples(slice, kPerInstance);
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, DealerTripleTest, ::testing::Values(1, 2, 3, 5, 8));

// Builds a circuit exercising every gate type and word op.
Circuit MixedCircuit() {
  Builder b;
  Word x = b.InputWord(12);
  Word y = b.InputWord(12);
  Word sum = b.Add(x, y);
  Word product = b.Mul(x, y);
  Word q, r;
  b.DivMod(x, y, &q, &r);
  b.OutputWord(sum);
  b.OutputWord(product);
  b.OutputWord(q);
  b.Output(b.Ult(x, y));
  b.Output(b.Not(b.Eq(x, y)));
  b.OutputWord(b.MuxWord(b.Ult(y, x), x, y));
  return b.Build();
}

std::vector<net::NodeId> PartyIds(int parties) {
  std::vector<net::NodeId> ids(parties);
  for (int p = 0; p < parties; p++) {
    ids[p] = p;
  }
  return ids;
}

// One instance of `circuit` evaluated by the block 0 .. P-1 of `net`
// (P = shares.size()) with dealer triples under `seed`, every role in one
// EvalBlock call. Returns each party's output shares.
std::vector<BitVector> EvalWithDealer(net::Transport* net, const Circuit& circuit,
                                      const std::vector<BitVector>& shares, uint64_t seed) {
  const int parties = static_cast<int>(shares.size());
  std::vector<DealerTripleSource> dealers;
  dealers.reserve(parties);  // `sources` points into it
  std::vector<TripleSource*> sources;
  for (int p = 0; p < parties; p++) {
    sources.push_back(&dealers.emplace_back(p, parties, seed));
  }
  return EvalBlock(net, /*session=*/0, circuit::EvalPlan(circuit), PartyIds(parties), {shares},
                   sources)[0];
}

// The same with OT triples from one wave of a triple factory on `net`.
std::vector<BitVector> EvalWithOtTriples(net::Transport* net, const Circuit& circuit,
                                         const std::vector<BitVector>& shares, uint64_t seed) {
  const int parties = static_cast<int>(shares.size());
  TripleFactory factory(net, seed);
  factory.Enqueue({{/*tag=*/0, PartyIds(parties), circuit.stats().num_and}});
  std::vector<TripleSource*> sources;
  for (int p = 0; p < parties; p++) {
    sources.push_back(factory.ViewFor(/*tag=*/0, p));
  }
  return EvalBlock(net, /*session=*/0, circuit::EvalPlan(circuit), PartyIds(parties), {shares},
                   sources)[0];
}

class GmwTest : public ::testing::TestWithParam<int> {};

TEST_P(GmwTest, MatchesPlaintextEvalWithDealerTriples) {
  int parties = GetParam();
  Circuit c = MixedCircuit();
  auto prg = crypto::ChaCha20Prg::FromSeed(77);
  for (int trial = 0; trial < 3; trial++) {
    BitVector inputs(c.num_inputs());
    for (auto& bit : inputs) {
      bit = prg.NextBit() ? 1 : 0;
    }
    auto expected = c.Eval(inputs);
    net::SimNetwork net(parties);
    auto shares = ShareBits(inputs, parties, prg);
    std::vector<BitVector> outputs = EvalWithDealer(&net, c, shares, /*seed=*/5);
    EXPECT_EQ(ReconstructBits(outputs), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Parties, GmwTest, ::testing::Values(2, 3, 5, 8, 12));

TEST(GmwTest, MatchesPlaintextEvalWithOtTriples) {
  constexpr int kParties = 3;
  Circuit c = MixedCircuit();
  auto prg = crypto::ChaCha20Prg::FromSeed(78);
  BitVector inputs(c.num_inputs());
  for (auto& bit : inputs) {
    bit = prg.NextBit() ? 1 : 0;
  }
  auto expected = c.Eval(inputs);
  net::SimNetwork net(kParties);
  auto shares = ShareBits(inputs, kParties, prg);
  std::vector<BitVector> outputs = EvalWithOtTriples(&net, c, shares, /*seed=*/200);
  EXPECT_EQ(ReconstructBits(outputs), expected);
}

TEST(GmwTest, ConstOnlyCircuit) {
  // Circuits whose outputs are constants must still evaluate correctly
  // (the leader holds constants, others hold zero shares).
  Builder b;
  Word c = b.ConstWord(0x5A, 8);
  b.OutputWord(c);
  Circuit circuit = b.Build();
  constexpr int kParties = 3;
  net::SimNetwork net(kParties);
  std::vector<BitVector> outputs =
      EvalWithDealer(&net, circuit, std::vector<BitVector>(kParties), /*seed=*/1);
  EXPECT_EQ(BitsToWord(ReconstructBits(outputs), 0, 8), 0x5Au);
}

TEST(GmwTest, TrafficScalesWithParties) {
  // GMW total traffic is quadratic in the party count; per-party traffic is
  // linear (the paper's observation in §5.3).
  Circuit c = MixedCircuit();
  auto prg = crypto::ChaCha20Prg::FromSeed(80);
  BitVector inputs(c.num_inputs(), 0);
  std::vector<uint64_t> per_party;
  for (int parties : {2, 4, 8}) {
    net::SimNetwork net(parties);
    EvalWithDealer(&net, c, ShareBits(inputs, parties, prg), /*seed=*/1);
    per_party.push_back(net.NodeStats(0).bytes_sent);
  }
  // Per-party bytes = (parties-1) * layer bytes: ratios should be ~3x, ~7/3.
  EXPECT_NEAR(static_cast<double>(per_party[1]) / per_party[0], 3.0, 0.2);
  EXPECT_NEAR(static_cast<double>(per_party[2]) / per_party[1], 7.0 / 3.0, 0.2);
}

// The EN update circuit at degree bound D, in the figure benches' 12-bit
// fixed-point format.
Circuit EnUpdateCircuit(int degree_bound) {
  finance::EnProgramParams params;
  params.format.value_bits = 12;
  params.format.frac_bits = 8;
  params.degree_bound = degree_bound;
  params.iterations = 7;
  params.noise_alpha = 0.5;
  params.aggregate_bits = 24;
  return core::BuildUpdateCircuit(finance::MakeEnProgram(params));
}

// One evaluation of `circuit` by a block of `parties` parties on a fresh
// sim transport, digested as every node's four TrafficStats counters plus
// the reconstructed output bits. Neither depends on triple values, so the
// digest holds for any triple source that sends the same messages.
std::string BlockMpcDigest(const Circuit& circuit, int parties, bool use_ot, uint64_t seed) {
  auto prg = crypto::ChaCha20Prg::FromSeed(seed);
  BitVector inputs(circuit.num_inputs());
  for (auto& bit : inputs) {
    bit = prg.NextBit() ? 1 : 0;
  }
  auto shares = ShareBits(inputs, parties, prg);
  net::SimNetwork net(parties);
  std::vector<BitVector> outputs = use_ot ? EvalWithOtTriples(&net, circuit, shares, seed)
                                          : EvalWithDealer(&net, circuit, shares, seed);
  BitVector opened = ReconstructBits(outputs);
  EXPECT_EQ(opened, circuit.Eval(inputs));
  FidelityDigest digest;
  digest.AddTraffic(net).AddBits(opened);
  return digest.Hex();
}

// Pin of the one-block drivers (the figure benches' block MPC and the
// naive baseline). The hex strings were captured from the per-party
// thread drivers and a per-role IKNP triple source, before both were
// replaced by one EvalBlock call and one triple-factory wave; traffic and
// outputs did not move.
TEST(BlockMpcDigestTest, TrafficMatchesGoldenDigest) {
  struct Case {
    const char* label;
    bool en;  // EN update circuit at D = 6, else MixedCircuit()
    int parties;
    bool use_ot;
    const char* golden;
  };
  const Case cases[] = {
      {"mixed P=2", false, 2, false,
       "ce032ab2571db92f039a373ec3217e6e84265942afe6a40652658be9307d4785"},
      {"mixed P=3", false, 3, false,
       "bf8be612cda089c575955263dcc346ef59b105fe4bef7a02f865ced1d3725ef7"},
      {"mixed P=5", false, 5, false,
       "c3450b72959798ca179e218f6d4988e0d9a89c51c0b8408a7ac8f94cc8844741"},
      {"mixed P=8", false, 8, false,
       "af8ebef56bfab72344ac2f17eccccf8393122dbe49c91db47e0d142f20217394"},
      {"en P=2", true, 2, false,
       "578433cf395a8d5fd61e03e2694835f54475e7b74d5ca483bb52f07b9bea8ee0"},
      {"en P=3", true, 3, false,
       "6859754839535a8b89ce724400c5012e69d8e1c83edd10df9f8c79275015aad4"},
      {"en P=5", true, 5, false,
       "6397a01507ebbb88e3ad93ed84f8b2bbc427d4564c97409d3cfef79d1ecebe09"},
      {"en P=8", true, 8, false,
       "e25028af3f6dcaed72188070c724beec292067f309e0f8463b1b6d0d1ac04847"},
      {"en ot P=2", true, 2, true,
       "fe89899cc67bd5ebe0649cc5872fc4be2bb32b71e5b44072577b745ae229d6d2"},
      {"en ot P=3", true, 3, true,
       "5bee61cfbd0ef6db331a623f3722da3a55dfe84c68ea747f8b32111f48bed7eb"},
      {"en ot P=5", true, 5, true,
       "25fb262fab3479838e4d445e2fe1ef0a48b7e8e66b9b24cd6c020d4892332d69"},
  };
  const Circuit mixed = MixedCircuit();
  const Circuit en = EnUpdateCircuit(6);
  for (const Case& c : cases) {
    ExpectGoldenDigest(BlockMpcDigest(c.en ? en : mixed, c.parties, c.use_ot, /*seed=*/41),
                       c.golden, c.label);
  }

  baseline::NaiveMpcParams params;
  params.matrix_n = 4;
  params.value_bits = 8;
  params.parties = 3;
  baseline::NaiveMpcResult naive = baseline::RunNaiveMatMul(params);
  FidelityDigest digest;
  digest.Add(naive.total_bytes).Add(naive.and_gates).Add(naive.verified ? 1 : 0);
  ExpectGoldenDigest(digest.Hex(),
                     "7c8e76103380647a2e82097e4a793b7c333d453270b52b9c514da3bb12067c52",
                     "naive matmul n=4");
}

}  // namespace
}  // namespace dstress::mpc
