#include <gtest/gtest.h>

#include <thread>

#include "src/circuit/builder.h"
#include "src/mpc/gmw.h"
#include "src/net/sim_network.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"

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

// Bulk-generation offset regression: the batched evaluation path draws
// wildly different batch sizes call to call (one bulk range per EvalBatch).
// The per-call tape advance must keep every party's derivation in sync for
// any agreed size sequence — checked per batch and over the concatenation
// of all batches.
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
// the bulk draw of GmwParty::EvalBatch is split per instance this way.
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

class OtTripleTest : public ::testing::TestWithParam<int> {};

TEST_P(OtTripleTest, TriplesAreValid) {
  int parties = GetParam();
  constexpr size_t kCount = 300;
  net::SimNetwork net(parties);
  std::vector<net::NodeId> ids(parties);
  for (int i = 0; i < parties; i++) {
    ids[i] = i;
  }
  std::vector<BitTriples> shares(parties);
  std::vector<std::thread> threads;
  for (int p = 0; p < parties; p++) {
    threads.emplace_back([&, p] {
      OtTripleSource source(&net, ids, p, crypto::ChaCha20Prg::FromSeed(100 + p));
      shares[p] = source.Generate(kCount);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  CheckTriples(shares, kCount);
}

INSTANTIATE_TEST_SUITE_P(Parties, OtTripleTest, ::testing::Values(2, 3, 4, 5));

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
    std::vector<BitVector> outputs(parties);
    std::vector<std::thread> threads;
    for (int p = 0; p < parties; p++) {
      threads.emplace_back([&, p] {
        std::vector<net::NodeId> ids(parties);
        for (int i = 0; i < parties; i++) {
          ids[i] = i;
        }
        DealerTripleSource triples(p, parties, 5);
        GmwParty party(&net, ids, p, &triples);
        outputs[p] = party.Eval(c, shares[p]);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
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
  std::vector<BitVector> outputs(kParties);
  std::vector<std::thread> threads;
  for (int p = 0; p < kParties; p++) {
    threads.emplace_back([&, p] {
      std::vector<net::NodeId> ids = {0, 1, 2};
      OtTripleSource triples(&net, ids, p, crypto::ChaCha20Prg::FromSeed(200 + p));
      GmwParty party(&net, ids, p, &triples);
      outputs[p] = party.Eval(c, shares[p]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
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
  std::vector<BitVector> outputs(kParties);
  std::vector<std::thread> threads;
  for (int p = 0; p < kParties; p++) {
    threads.emplace_back([&, p] {
      std::vector<net::NodeId> ids = {0, 1, 2};
      DealerTripleSource triples(p, kParties, 1);
      GmwParty party(&net, ids, p, &triples);
      outputs[p] = party.Eval(circuit, {});
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(BitsToWord(ReconstructBits(outputs), 0, 8), 0x5Au);
}

TEST(GmwTest, OpenRevealsSharedBits) {
  constexpr int kParties = 4;
  auto prg = crypto::ChaCha20Prg::FromSeed(79);
  BitVector secret(100);
  for (auto& bit : secret) {
    bit = prg.NextBit() ? 1 : 0;
  }
  net::SimNetwork net(kParties);
  auto shares = ShareBits(secret, kParties, prg);
  std::vector<BitVector> opened(kParties);
  std::vector<std::thread> threads;
  for (int p = 0; p < kParties; p++) {
    threads.emplace_back([&, p] {
      std::vector<net::NodeId> ids = {0, 1, 2, 3};
      DealerTripleSource triples(p, kParties, 1);
      GmwParty party(&net, ids, p, &triples);
      opened[p] = party.Open(shares[p]);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int p = 0; p < kParties; p++) {
    EXPECT_EQ(opened[p], secret) << "party " << p;
  }
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
    auto shares = ShareBits(inputs, parties, prg);
    std::vector<std::thread> threads;
    for (int p = 0; p < parties; p++) {
      threads.emplace_back([&, p, parties] {
        std::vector<net::NodeId> ids(parties);
        for (int i = 0; i < parties; i++) {
          ids[i] = i;
        }
        DealerTripleSource triples(p, parties, 1);
        GmwParty party(&net, ids, p, &triples);
        party.Eval(c, shares[p]);
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    per_party.push_back(net.NodeStats(0).bytes_sent);
  }
  // Per-party bytes = (parties-1) * layer bytes: ratios should be ~3x, ~7/3.
  EXPECT_NEAR(static_cast<double>(per_party[1]) / per_party[0], 3.0, 0.2);
  EXPECT_NEAR(static_cast<double>(per_party[2]) / per_party[1], 7.0 / 3.0, 0.2);
}

}  // namespace
}  // namespace dstress::mpc
