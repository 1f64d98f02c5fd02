#include "src/crypto/elgamal.h"

#include <gtest/gtest.h>

namespace dstress::crypto {
namespace {

class ElGamalTest : public ::testing::Test {
 protected:
  ElGamalTest() : prg_(ChaCha20Prg::FromSeed(42)), table_(2000) {}

  ChaCha20Prg prg_;
  DlogTable table_;
};

TEST_F(ElGamalTest, EncryptDecryptRoundTrip) {
  auto kp = ElGamalKeyGen(prg_);
  for (int64_t m : {0LL, 1LL, 2LL, 100LL, 1999LL, -1LL, -2000LL}) {
    auto ct = ElGamalEncrypt(kp.pub, m, prg_);
    int64_t out = 0;
    ASSERT_TRUE(table_.Decrypt(kp.secret, ct, &out)) << m;
    EXPECT_EQ(out, m);
  }
}

TEST_F(ElGamalTest, DecryptOutOfRangeFails) {
  auto kp = ElGamalKeyGen(prg_);
  auto ct = ElGamalEncrypt(kp.pub, 2001, prg_);  // beyond the table range
  int64_t out = 0;
  EXPECT_FALSE(table_.Decrypt(kp.secret, ct, &out));
}

TEST_F(ElGamalTest, CiphertextsAreRandomized) {
  auto kp = ElGamalKeyGen(prg_);
  auto a = ElGamalEncrypt(kp.pub, 5, prg_);
  auto b = ElGamalEncrypt(kp.pub, 5, prg_);
  EXPECT_NE(a.c1, b.c1);
  EXPECT_NE(a.c2, b.c2);
}

TEST_F(ElGamalTest, WrongKeyFailsToDecrypt) {
  auto kp1 = ElGamalKeyGen(prg_);
  auto kp2 = ElGamalKeyGen(prg_);
  auto ct = ElGamalEncrypt(kp1.pub, 7, prg_);
  int64_t out = 0;
  // Decryption with the wrong key yields a random-looking point that is
  // (overwhelmingly) outside a small table.
  EXPECT_FALSE(table_.Decrypt(kp2.secret, ct, &out));
}

TEST_F(ElGamalTest, AdditiveHomomorphism) {
  auto kp = ElGamalKeyGen(prg_);
  for (auto [a, b] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 2}, {100, 200}, {-50, 75}, {-100, -200}, {999, -999}}) {
    auto sum_ct = HomAdd(ElGamalEncrypt(kp.pub, a, prg_), ElGamalEncrypt(kp.pub, b, prg_));
    int64_t out = 0;
    ASSERT_TRUE(table_.Decrypt(kp.secret, sum_ct, &out));
    EXPECT_EQ(out, a + b);
  }
}

TEST_F(ElGamalTest, HomAddPlain) {
  auto kp = ElGamalKeyGen(prg_);
  auto ct = ElGamalEncrypt(kp.pub, 10, prg_);
  for (int64_t delta : {0LL, 1LL, -4LL, 500LL, -510LL}) {
    int64_t out = 0;
    ASSERT_TRUE(table_.Decrypt(kp.secret, HomAddPlain(ct, delta), &out));
    EXPECT_EQ(out, 10 + delta);
  }
}

TEST_F(ElGamalTest, LongHomomorphicChain) {
  auto kp = ElGamalKeyGen(prg_);
  auto acc = ElGamalEncrypt(kp.pub, 0, prg_);
  int64_t expected = 0;
  for (int i = 1; i <= 40; i++) {
    acc = HomAdd(acc, ElGamalEncrypt(kp.pub, i, prg_));
    expected += i;
  }
  int64_t out = 0;
  ASSERT_TRUE(table_.Decrypt(kp.secret, acc, &out));
  EXPECT_EQ(out, expected);
}

TEST_F(ElGamalTest, RerandomizedKeyNeedsAdjustment) {
  auto kp = ElGamalKeyGen(prg_);
  U256 r = prg_.NextScalar(CurveOrder());
  auto blinded = RandomizePublicKey(kp.pub, r);
  auto ct = ElGamalEncrypt(blinded, 33, prg_);
  int64_t out = 0;
  // Without adjustment the original key cannot decrypt...
  EXPECT_FALSE(table_.Decrypt(kp.secret, ct, &out));
  // ...with adjustment it can.
  ASSERT_TRUE(table_.Decrypt(kp.secret, AdjustCiphertext(ct, r), &out));
  EXPECT_EQ(out, 33);
}

TEST_F(ElGamalTest, AdjustmentPreservesHomomorphism) {
  auto kp = ElGamalKeyGen(prg_);
  U256 r = prg_.NextScalar(CurveOrder());
  auto blinded = RandomizePublicKey(kp.pub, r);
  auto sum = HomAdd(ElGamalEncrypt(blinded, 11, prg_), ElGamalEncrypt(blinded, 31, prg_));
  int64_t out = 0;
  ASSERT_TRUE(table_.Decrypt(kp.secret, AdjustCiphertext(sum, r), &out));
  EXPECT_EQ(out, 42);
}

TEST_F(ElGamalTest, MultiRecipientSharedEphemeral) {
  std::vector<ElGamalKeyPair> keypairs;
  std::vector<ElGamalPublicKey> pubs;
  std::vector<int64_t> msgs;
  for (int i = 0; i < 6; i++) {
    keypairs.push_back(ElGamalKeyGen(prg_));
    pubs.push_back(keypairs.back().pub);
    msgs.push_back(10 * i - 20);
  }
  auto multi = ElGamalEncryptMulti(pubs, msgs, prg_);
  ASSERT_EQ(multi.c2.size(), 6u);
  for (int i = 0; i < 6; i++) {
    ElGamalCiphertext ct{multi.c1, multi.c2[i]};
    int64_t out = 0;
    ASSERT_TRUE(table_.Decrypt(keypairs[i].secret, ct, &out));
    EXPECT_EQ(out, msgs[i]);
  }
}

TEST_F(ElGamalTest, MultiRecipientSizeAccounting) {
  std::vector<ElGamalPublicKey> pubs(5, ElGamalKeyGen(prg_).pub);
  std::vector<int64_t> msgs(5, 1);
  auto multi = ElGamalEncryptMulti(pubs, msgs, prg_);
  EXPECT_EQ(multi.SerializedSize(), (1 + 5) * EcPoint::kCompressedSize);
}

TEST_F(ElGamalTest, EncodeExponentNegativeValues) {
  // -m encodes as n - m; adding m*G must give infinity.
  U256 encoded = EncodeExponent(-17);
  EXPECT_TRUE(MulBase(encoded).Add(MulBase(U256(17))).IsInfinity());
}

TEST_F(ElGamalTest, SerializationRoundTrip) {
  auto kp = ElGamalKeyGen(prg_);
  auto ct = ElGamalEncrypt(kp.pub, 55, prg_);
  Bytes raw = ct.Serialize();
  EXPECT_EQ(raw.size(), ElGamalCiphertext::kSerializedSize);
  auto back = ElGamalCiphertext::Deserialize(raw);
  int64_t out = 0;
  ASSERT_TRUE(table_.Decrypt(kp.secret, back, &out));
  EXPECT_EQ(out, 55);

  Bytes pub_raw = kp.pub.Serialize();
  EXPECT_EQ(ElGamalPublicKey::Deserialize(pub_raw).point, kp.pub.point);
}

TEST_F(ElGamalTest, DeterministicEphemeralIsReproducible) {
  auto kp = ElGamalKeyGen(prg_);
  U256 y = prg_.NextScalar(CurveOrder());
  auto a = ElGamalEncryptWithEphemeral(kp.pub, 9, y);
  auto b = ElGamalEncryptWithEphemeral(kp.pub, 9, y);
  EXPECT_EQ(a.c1, b.c1);
  EXPECT_EQ(a.c2, b.c2);
}

TEST(DlogTableTest, CoversSymmetricRange) {
  // Every m in [-range, range] resolves to itself and range + 1 misses on
  // both sides, including ranges on either side of the build's 512-entry
  // chunk (the last chunk full, one short, and one entry into the next).
  for (int64_t range : {0, 1, 2, 50, 511, 512, 513, 1023, 1024, 1025}) {
    DlogTable table(range);
    EXPECT_EQ(table.entries(), static_cast<size_t>(2 * range + 1)) << range;
    for (int64_t m = -range; m <= range; m++) {
      int64_t out = 0;
      ASSERT_TRUE(table.Lookup(MulBase(EncodeExponent(m)), &out)) << range << ": " << m;
      EXPECT_EQ(out, m) << range;
    }
    int64_t out = 0;
    EXPECT_FALSE(table.Lookup(MulBase(EncodeExponent(range + 1)), &out)) << range;
    EXPECT_FALSE(table.Lookup(MulBase(EncodeExponent(-range - 1)), &out)) << range;
  }
}

TEST(DlogTableTest, LargeRangeBuildsWithoutDigestCollisions) {
  // The build aborts on any truncated-digest collision; a deliberately large
  // range exercises that check across ~600k emplaces and the chunked batch
  // compression path, with spot lookups at the extremes and interior.
  constexpr int64_t kRange = 300000;
  DlogTable table(kRange);
  EXPECT_EQ(table.entries(), static_cast<size_t>(2 * kRange + 1));
  for (int64_t m : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{12345}, int64_t{-299999},
                    kRange, -kRange}) {
    int64_t out = 0;
    ASSERT_TRUE(table.Lookup(MulBase(EncodeExponent(m)), &out)) << m;
    EXPECT_EQ(out, m);
  }
  int64_t out = 0;
  EXPECT_FALSE(table.Lookup(MulBase(EncodeExponent(kRange + 1)), &out));
  // The compressed-bytes lookup used by the batched decrypt path agrees.
  auto compressed = MulBase(EncodeExponent(777)).Compress();
  ASSERT_TRUE(table.LookupCompressed(compressed.data(), &out));
  EXPECT_EQ(out, 777);
}

TEST(DlogTableTest, ZeroRangeOnlyInfinity) {
  DlogTable table(0);
  int64_t out = -1;
  ASSERT_TRUE(table.Lookup(EcPoint::Infinity(), &out));
  EXPECT_EQ(out, 0);
  EXPECT_FALSE(table.Lookup(MulBase(U256(1)), &out));
}

}  // namespace
}  // namespace dstress::crypto
