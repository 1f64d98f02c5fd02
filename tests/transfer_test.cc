#include "src/transfer/transfer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/net/sim_network.h"
#include "src/transfer/batch_engine.h"

namespace dstress::transfer {
namespace {

struct SchemeCase {
  int block_size;
  int message_bits;
  double alpha;
};

class TransferSchemeTest : public ::testing::TestWithParam<SchemeCase> {};

// Theorem 1 (Appendix A): the value shared in B_v after the transfer equals
// the value shared in B_u before it.
TEST_P(TransferSchemeTest, CorrectnessTheorem) {
  auto [block_size, bits, alpha] = GetParam();
  auto prg = crypto::ChaCha20Prg::FromSeed(1000 + block_size * 17 + bits);
  TransferParams params;
  params.block_size = block_size;
  params.message_bits = bits;
  params.budget_alpha = alpha;
  // Size the lookup table so the Appendix B failure event is negligible
  // across every draw this test makes (3 trials × bits × block_size sums).
  params.dlog_range = params.RecommendedDlogRange(1e-12);

  BlockKeys dest_keys = TransferSetup(block_size, bits, prg);
  crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
  BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(dest_keys), neighbor_key);
  crypto::DlogTable table(params.dlog_range);

  for (int trial = 0; trial < 3; trial++) {
    // Source block holds an XOR-sharing of a random message.
    mpc::BitVector message(bits);
    for (auto& bit : message) {
      bit = prg.NextBit() ? 1 : 0;
    }
    auto source_shares = mpc::ShareBits(message, block_size, prg);

    std::vector<SubshareBundle> bundles;
    for (int x = 0; x < block_size; x++) {
      bundles.push_back(EncryptSubshares(source_shares[x], cert, prg));
    }
    AggregatedColumns agg = AggregateSubshares(bundles, params, prg);
    AggregatedColumns adjusted = AdjustAggregated(agg, neighbor_key);

    std::vector<mpc::BitVector> dest_shares(block_size);
    for (int y = 0; y < block_size; y++) {
      MemberColumn column{adjusted.c1, adjusted.c2[y]};
      ASSERT_TRUE(RecoverShare(column, dest_keys.members[y], table, &dest_shares[y]))
          << "member " << y;
    }
    EXPECT_EQ(mpc::ReconstructBits(dest_shares), message) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, TransferSchemeTest,
                         ::testing::Values(SchemeCase{2, 1, 0.5}, SchemeCase{3, 12, 0.9},
                                           SchemeCase{4, 8, 0.99}, SchemeCase{8, 12, 0.9},
                                           SchemeCase{8, 16, 0.5}, SchemeCase{12, 12, 0.9}));

TEST(TransferTest, WithoutAdjustmentRecoveryFails) {
  auto prg = crypto::ChaCha20Prg::FromSeed(2);
  TransferParams params;
  params.block_size = 3;
  params.message_bits = 4;
  params.dlog_range = 256;
  BlockKeys keys = TransferSetup(3, 4, prg);
  crypto::U256 r = prg.NextScalar(crypto::CurveOrder());
  BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(keys), r);
  crypto::DlogTable table(params.dlog_range);

  mpc::BitVector message = {1, 0, 1, 0};
  auto shares = mpc::ShareBits(message, 3, prg);
  std::vector<SubshareBundle> bundles;
  for (int x = 0; x < 3; x++) {
    bundles.push_back(EncryptSubshares(shares[x], cert, prg));
  }
  AggregatedColumns agg = AggregateSubshares(bundles, params, prg);
  // Decrypting the unadjusted ciphertext with original keys lands outside
  // the lookup table (the point is blinded by the unknown neighbor key).
  mpc::BitVector out;
  EXPECT_FALSE(RecoverShare(MemberColumn{agg.c1, agg.c2[0]}, keys.members[0], table, &out));
}

TEST(TransferTest, NoiseIsAppliedToBitSums) {
  // With heavy masking noise (alpha close to 1), decrypted bit sums should
  // frequently differ from the raw sums, while parity stays intact — here
  // verified indirectly: recovery still reconstructs the message.
  auto prg = crypto::ChaCha20Prg::FromSeed(3);
  TransferParams params;
  params.block_size = 4;
  params.message_bits = 8;
  params.budget_alpha = 0.999;  // effective alpha^(2/4) — wide noise
  params.dlog_range = params.RecommendedDlogRange(1e-12);
  BlockKeys keys = TransferSetup(4, 8, prg);
  crypto::U256 r = prg.NextScalar(crypto::CurveOrder());
  BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(keys), r);
  crypto::DlogTable table(params.dlog_range);

  mpc::BitVector message = {1, 1, 0, 0, 1, 0, 1, 1};
  auto shares = mpc::ShareBits(message, 4, prg);
  std::vector<SubshareBundle> bundles;
  for (int x = 0; x < 4; x++) {
    bundles.push_back(EncryptSubshares(shares[x], cert, prg));
  }
  AggregatedColumns agg = AggregateSubshares(bundles, params, prg);
  AggregatedColumns adjusted = AdjustAggregated(agg, r);
  std::vector<mpc::BitVector> dest(4);
  for (int y = 0; y < 4; y++) {
    ASSERT_TRUE(
        RecoverShare(MemberColumn{adjusted.c1, adjusted.c2[y]}, keys.members[y], table, &dest[y]));
  }
  EXPECT_EQ(mpc::ReconstructBits(dest), message);
}

TEST(TransferTest, SerializationRoundTrips) {
  auto prg = crypto::ChaCha20Prg::FromSeed(4);
  constexpr int kBlock = 3;
  constexpr int kBits = 5;
  BlockKeys keys = TransferSetup(kBlock, kBits, prg);
  crypto::U256 r = prg.NextScalar(crypto::CurveOrder());
  BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(keys), r);

  Bytes cert_raw = cert.Serialize();
  BlockCertificate cert2 = BlockCertificate::Deserialize(cert_raw);
  ASSERT_EQ(cert2.keys.size(), cert.keys.size());
  for (size_t m = 0; m < cert.keys.size(); m++) {
    for (size_t b = 0; b < cert.keys[m].size(); b++) {
      EXPECT_EQ(cert2.keys[m][b].point, cert.keys[m][b].point);
    }
  }

  mpc::BitVector share = {1, 0, 0, 1, 1};
  SubshareBundle bundle = EncryptSubshares(share, cert, prg);
  Bytes raw = bundle.Serialize();
  EXPECT_EQ(raw.size(), bundle.SerializedSize());
  EXPECT_EQ(raw.size(), (1 + kBlock * kBits) * crypto::EcPoint::kCompressedSize);
  SubshareBundle bundle2 = SubshareBundle::Deserialize(raw, kBlock, kBits);
  EXPECT_EQ(bundle2.c1, bundle.c1);
  for (int m = 0; m < kBlock; m++) {
    for (int b = 0; b < kBits; b++) {
      EXPECT_EQ(bundle2.c2[m][b], bundle.c2[m][b]);
    }
  }
}

TEST(TransferTest, WireSizesMatchAnalyticFormulas) {
  // §5.3's traffic roles: members send (1 + (k+1)L)-point bundles, node i
  // forwards one aggregated bundle of the same size, members of B_j receive
  // constant (1 + L)-point columns.
  auto prg = crypto::ChaCha20Prg::FromSeed(5);
  for (int block_size : {4, 8}) {
    constexpr int kBits = 12;
    BlockKeys keys = TransferSetup(block_size, kBits, prg);
    crypto::U256 r = prg.NextScalar(crypto::CurveOrder());
    BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(keys), r);
    mpc::BitVector share(kBits, 0);
    SubshareBundle bundle = EncryptSubshares(share, cert, prg);
    EXPECT_EQ(bundle.Serialize().size(),
              static_cast<size_t>(1 + block_size * kBits) * 33);
    TransferParams params;
    params.block_size = block_size;
    params.message_bits = kBits;
    std::vector<SubshareBundle> bundles(block_size, bundle);
    AggregatedColumns agg = AggregateSubshares(bundles, params, prg);
    EXPECT_EQ(agg.Serialize().size(), static_cast<size_t>(1 + block_size * kBits) * 33);
    MemberColumn column{agg.c1, agg.c2[0]};
    EXPECT_EQ(column.Serialize().size(), static_cast<size_t>(1 + kBits) * 33);
  }
}

TEST(TransferTest, NetworkedRolesEndToEnd) {
  // Full networked execution: 2 blocks of 3 members + the two endpoints,
  // nodes 0..7 on a SimNetwork, with overlapping role assignments. The four
  // edge-transfer steps run in order on this thread (Send never blocks).
  constexpr int kBlock = 3;
  constexpr int kBits = 6;
  auto prg = crypto::ChaCha20Prg::FromSeed(6);
  TransferParams params;
  params.block_size = kBlock;
  params.message_bits = kBits;
  params.budget_alpha = 0.9;
  params.dlog_range = 512;

  net::SimNetwork net(8);
  // Node 0 = i, node 1 = j; B_i = {0, 2, 3}, B_j = {1, 4, 0} (node 0 plays
  // both source endpoint and receiver member — the session-splitting case).
  std::vector<net::NodeId> block_i = {0, 2, 3};
  std::vector<net::NodeId> block_j = {1, 4, 0};

  BlockKeys keys_j = TransferSetup(kBlock, kBits, prg);
  crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
  BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(keys_j), neighbor_key);
  crypto::DlogTable table(params.dlog_range);
  EvenNoiseCache noise(params.dlog_range);

  mpc::BitVector message = {1, 0, 1, 1, 0, 1};
  auto src_shares = mpc::ShareBits(message, kBlock, prg);

  constexpr net::SessionId kSession = 42;
  std::vector<crypto::ChaCha20Prg> role_prgs;
  std::vector<const MemberKeys*> member_keys;
  for (int x = 0; x < kBlock; x++) {
    role_prgs.push_back(crypto::ChaCha20Prg::FromSeed(900 + x));
    member_keys.push_back(&keys_j.members[x]);
  }
  auto mask_prg = crypto::ChaCha20Prg::FromSeed(800);
  SendBundles(&net, block_i, 0, kSession, src_shares, cert, role_prgs);
  AggregateAtSource(&net, 0, block_i, 1, kSession, params, mask_prg, noise);
  AdjustAtDest(&net, 1, 0, block_j, kSession, neighbor_key, params);
  std::vector<mpc::BitVector> dest_shares =
      RecoverAtMembers(&net, block_j, 1, kSession, member_keys, table, params);
  EXPECT_EQ(mpc::ReconstructBits(dest_shares), message);

  // Traffic sanity: node 0 (source endpoint) received the k+1 bundles.
  EXPECT_GE(net.NodeStats(0).bytes_received,
            static_cast<uint64_t>(kBlock) * (1 + kBlock * kBits) * 33);
}

TEST(TransferBatchEngineTest, WireBytesBitIdenticalToSeedPath) {
  // The tentpole fidelity contract: with identical PRG streams, every wire
  // message the batched engine produces is byte-identical to the seed
  // schedule's, across all four roles.
  constexpr int kBlock = 4;
  constexpr int kBits = 6;
  auto setup_prg = crypto::ChaCha20Prg::FromSeed(20);
  TransferParams params;
  params.block_size = kBlock;
  params.message_bits = kBits;
  params.budget_alpha = 0.9;
  params.dlog_range = params.RecommendedDlogRange(1e-12);

  BlockKeys keys = TransferSetup(kBlock, kBits, setup_prg);
  crypto::U256 neighbor_key = setup_prg.NextScalar(crypto::CurveOrder());
  BlockCertificate cert = MakeBlockCertificate(PublicKeysOf(keys), neighbor_key);
  crypto::DlogTable table(params.dlog_range);
  EvenNoiseCache noise(params.dlog_range);

  mpc::BitVector message = {1, 0, 1, 1, 0, 1};
  auto shares = mpc::ShareBits(message, kBlock, setup_prg);

  // Senders: seed path and batched path from identical per-member PRGs.
  std::vector<Bytes> seed_bundles;
  std::vector<SubshareBundle> bundles;
  for (int x = 0; x < kBlock; x++) {
    auto prg = crypto::ChaCha20Prg::FromSeed(500 + x);
    bundles.push_back(EncryptSubshares(shares[x], cert, prg));
    seed_bundles.push_back(bundles.back().Serialize());
  }
  std::vector<crypto::ChaCha20Prg> batch_prgs;
  for (int x = 0; x < kBlock; x++) {
    batch_prgs.push_back(crypto::ChaCha20Prg::FromSeed(500 + x));
  }
  std::vector<Bytes> batch_bundles = EncryptSubsharesWire(shares, cert, batch_prgs);
  ASSERT_EQ(batch_bundles.size(), seed_bundles.size());
  for (int x = 0; x < kBlock; x++) {
    EXPECT_EQ(batch_bundles[x], seed_bundles[x]) << "sender " << x;
  }

  // Source endpoint aggregation + masking.
  auto seed_agg_prg = crypto::ChaCha20Prg::FromSeed(600);
  Bytes seed_agg = AggregateSubshares(bundles, params, seed_agg_prg).Serialize();
  auto batch_agg_prg = crypto::ChaCha20Prg::FromSeed(600);
  Bytes batch_agg = AggregateSubsharesWire(batch_bundles, params, batch_agg_prg, noise);
  EXPECT_EQ(batch_agg, seed_agg);

  // Dest endpoint adjustment + split.
  AggregatedColumns adjusted = AdjustAggregated(
      AggregatedColumns::Deserialize(seed_agg, kBlock, kBits), neighbor_key);
  std::vector<Bytes> batch_columns = AdjustAndSplitWire(batch_agg, neighbor_key, params);
  ASSERT_EQ(batch_columns.size(), static_cast<size_t>(kBlock));
  for (int y = 0; y < kBlock; y++) {
    Bytes seed_column = MemberColumn{adjusted.c1, adjusted.c2[y]}.Serialize();
    EXPECT_EQ(batch_columns[y], seed_column) << "recipient " << y;
  }

  // Receivers: batched recovery agrees with per-member seed recovery and
  // reconstructs the message.
  std::vector<const MemberKeys*> key_ptrs;
  for (int y = 0; y < kBlock; y++) {
    key_ptrs.push_back(&keys.members[y]);
  }
  std::vector<mpc::BitVector> batch_shares;
  ASSERT_TRUE(RecoverSharesWire(batch_columns, key_ptrs, table, params, &batch_shares));
  for (int y = 0; y < kBlock; y++) {
    mpc::BitVector seed_share;
    ASSERT_TRUE(RecoverShare(MemberColumn{adjusted.c1, adjusted.c2[y]}, keys.members[y], table,
                             &seed_share));
    EXPECT_EQ(batch_shares[y], seed_share) << "recipient " << y;
  }
  EXPECT_EQ(mpc::ReconstructBits(batch_shares), message);
}

TEST(TransferBatchEngineTest, NoiseCacheMatchesMulBase) {
  EvenNoiseCache cache(64);
  for (int64_t mask : {int64_t{0}, int64_t{2}, int64_t{-2}, int64_t{128}, int64_t{-128},
                       int64_t{1 << 20}, -int64_t{1 << 20}}) {
    crypto::EcPoint want = crypto::MulBase(crypto::EncodeExponent(mask));
    EXPECT_EQ(crypto::EcPoint::FromAffinePoint(cache.Get(mask)), want) << mask;
  }
}

TEST(TransferTest, EffectiveAlphaFormula) {
  TransferParams params;
  params.block_size = 20;
  params.budget_alpha = 0.9;
  EXPECT_NEAR(params.EffectiveAlpha(), std::pow(0.9, 2.0 / 20), 1e-12);
}

// The auto-sized discrete-log table must absorb the whole mask: the value
// looked up is (bit sum in [0, k+1]) + 2·Y with Y two-sided geometric at
// the effective alpha a, and P(|Y| > t) = 2·a^(t+1)/(1+a) for integer
// t >= 0. So a half-range r misses with P(|2·Y| > r - (k+1)) =
// 2·a^(floor((r - (k+1))/2) + 1)/(1+a), which must stay within the budget.
TEST(TransferTest, RecommendedDlogRangeCoversTheDoubledMask) {
  for (double alpha : {0.5, 0.9, 0.99, 0.999}) {
    for (int block_size : {2, 3, 4, 8, 20}) {
      for (double p : {1e-3, 1e-6, 1.74e-10, 1e-12}) {
        TransferParams params;
        params.block_size = block_size;
        params.budget_alpha = alpha;
        const double a = params.EffectiveAlpha();
        const int64_t r = params.RecommendedDlogRange(p);
        const int64_t t = (r - block_size) / 2;
        ASSERT_GE(t, 0);
        const double miss = 2.0 * std::pow(a, static_cast<double>(t + 1)) / (1.0 + a);
        EXPECT_LE(miss, p * (1 + 1e-9))
            << "alpha=" << alpha << " k+1=" << block_size << " p=" << p << " r=" << r;
      }
    }
  }
}

}  // namespace
}  // namespace dstress::transfer
