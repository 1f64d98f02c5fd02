#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "src/crypto/chacha20_lanes.h"
#include "src/crypto/ec.h"
#include "src/crypto/sha256.h"
#include "src/net/sim_network.h"
#include "src/ot/base_ot.h"
#include "src/ot/iknp.h"
#include "tests/fidelity_digest.h"

namespace dstress::ot {
namespace {

using crypto::EcPoint;
using Encoding = std::array<uint8_t, EcPoint::kCompressedSize>;

// The key derivation's definition: the first 16 bytes of
// SHA-256(le32(index) || compressed point).
OtKey ReferenceKey(uint32_t index, const Encoding& point) {
  crypto::Sha256 h;
  uint8_t idx[4];
  std::memcpy(idx, &index, 4);
  h.Update(idx, 4);
  h.Update(point.data(), point.size());
  auto digest = h.Finish();
  OtKey key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

Encoding EncodingAt(const Bytes& packed, size_t i) {
  Encoding out;
  std::memcpy(out.data(), packed.data() + i * out.size(), out.size());
  return out;
}

// Records every payload by sending node; a base-OT pair sends one message
// each way.
class PayloadRecorder : public net::NetworkObserver {
 public:
  void OnSend(net::NodeId from, net::NodeId, net::SessionId, const Bytes& payload) override {
    std::lock_guard<std::mutex> lock(mu_);
    sent_[from].push_back(payload);
  }
  void OnRecv(net::NodeId, net::NodeId, net::SessionId, const Bytes&) override {}

  // Read only after the protocol threads have joined.
  const std::vector<Bytes>& SentBy(net::NodeId from) { return sent_[from]; }

 private:
  std::mutex mu_;
  std::map<net::NodeId, std::vector<Bytes>> sent_;
};

struct BaseOtTranscript {
  Bytes announce;
  Bytes reply;
  BaseOtSenderOutput sender;
  BaseOtReceiverOutput receiver;
};

// One base-OT pair over SimNetwork, sender node 0 and receiver node 1, with
// the two wire messages captured.
BaseOtTranscript RunBaseOtPair(const std::vector<bool>& choices, uint64_t sender_seed,
                               uint64_t receiver_seed) {
  PayloadRecorder recorder;
  net::SimNetwork net(2);
  net.SetObserver(&recorder);
  BaseOtTranscript t;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(sender_seed);
    t.sender = BaseOtSend(&net, 0, 1, static_cast<int>(choices.size()), prg);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(receiver_seed);
    t.receiver = BaseOtRecv(&net, 1, 0, choices, prg);
  });
  sender.join();
  receiver.join();
  EXPECT_EQ(recorder.SentBy(0).size(), 1u);
  EXPECT_EQ(recorder.SentBy(1).size(), 1u);
  t.announce = recorder.SentBy(0).at(0);
  t.reply = recorder.SentBy(1).at(0);
  return t;
}

TEST(BaseOtTest, ReceiverLearnsChosenKeyOnly) {
  constexpr int kCount = 32;
  std::vector<bool> choices(kCount);
  for (int i = 0; i < kCount; i++) {
    choices[i] = (i % 3) == 0;
  }
  BaseOtTranscript t = RunBaseOtPair(choices, 1, 2);
  ASSERT_EQ(t.sender.keys0.size(), static_cast<size_t>(kCount));
  ASSERT_EQ(t.receiver.keys.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; i++) {
    const OtKey& chosen = choices[i] ? t.sender.keys1[i] : t.sender.keys0[i];
    const OtKey& other = choices[i] ? t.sender.keys0[i] : t.sender.keys1[i];
    EXPECT_EQ(t.receiver.keys[i], chosen) << i;
    EXPECT_NE(t.receiver.keys[i], other) << i;
  }
}

TEST(BaseOtTest, KeysAreDistinctAcrossTransfers) {
  const BaseOtSenderOutput sender_out = RunBaseOtPair(std::vector<bool>(8, false), 3, 4).sender;
  for (int i = 0; i < 8; i++) {
    for (int j = i + 1; j < 8; j++) {
      EXPECT_NE(sender_out.keys0[i], sender_out.keys0[j]);
    }
    EXPECT_NE(sender_out.keys0[i], sender_out.keys1[i]);
  }
}

// Golden digest of fixed-seed base-OT pairs: counts 1, 3, 128 and 129, each
// under all-zero, all-one and PRG-drawn choices. The announce and reply
// bytes and all three key vectors are digested, so the wire encoding, the
// order of PRG draws and the key derivation are pinned together. Paste the
// printed digest back only for a deliberate protocol change.
TEST(BaseOtTest, TranscriptMatchesGoldenDigest) {
  FidelityDigest digest;
  uint64_t seed = 40;
  for (int count : {1, 3, 128, 129}) {
    auto choice_prg = crypto::ChaCha20Prg::FromSeed(39, static_cast<uint64_t>(count));
    std::vector<bool> drawn(count);
    for (int i = 0; i < count; i++) {
      drawn[i] = choice_prg.NextBit();
    }
    for (const auto& choices :
         {std::vector<bool>(count, false), std::vector<bool>(count, true), drawn}) {
      BaseOtTranscript t = RunBaseOtPair(choices, seed, seed + 1);
      seed += 2;
      digest.Add(static_cast<uint64_t>(count));
      digest.AddBytes(t.announce.data(), t.announce.size());
      digest.AddBytes(t.reply.data(), t.reply.size());
      ASSERT_EQ(t.receiver.keys.size(), static_cast<size_t>(count));
      for (int i = 0; i < count; i++) {
        EXPECT_EQ(t.receiver.keys[i], choices[i] ? t.sender.keys1[i] : t.sender.keys0[i]);
        digest.AddBytes(t.sender.keys0[i].data(), t.sender.keys0[i].size());
        digest.AddBytes(t.sender.keys1[i].data(), t.sender.keys1[i].size());
        digest.AddBytes(t.receiver.keys[i].data(), t.receiver.keys[i].size());
      }
    }
  }
  ExpectGoldenDigest(digest.Hex(), "285383465c1f3c71e40bffe85b355b503ac7c828a483061372c857b47fb26b5b",
                     "base-OT transcript");
}

// A sender announcing A = infinity (33 zero bytes) is accepted: every
// b_i * A is infinity, so each key is H(i, 0^33), and adding A to the choice-1
// replies is the identity, so every reply point is plain b_i * G.
TEST(BaseOtTest, InfinityAnnounceGivesKeysOfTheZeroEncoding) {
  constexpr int kCount = 6;
  constexpr uint64_t kSeed = 61;
  std::vector<bool> choices = {false, true, true, false, true, false};
  net::SimNetwork net(2);
  Bytes reply;
  std::thread peer([&] {
    net.Send(0, 1, Bytes(EcPoint::kCompressedSize, 0));
    reply = net.Recv(0, 1);
  });
  auto prg = crypto::ChaCha20Prg::FromSeed(kSeed);
  BaseOtReceiverOutput out = BaseOtRecv(&net, 1, 0, choices, prg);
  peer.join();

  auto ref_prg = crypto::ChaCha20Prg::FromSeed(kSeed);
  ASSERT_EQ(reply.size(), kCount * EcPoint::kCompressedSize);
  ASSERT_EQ(out.keys.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; i++) {
    EcPoint b_point = crypto::MulBase(ref_prg.NextScalar(crypto::CurveOrder()));
    EXPECT_EQ(EncodingAt(reply, i), b_point.Compress()) << i;
    EXPECT_EQ(out.keys[i], ReferenceKey(static_cast<uint32_t>(i), Encoding{})) << i;
  }
}

// BaseOtSend (node 0) against a scripted receiver thread (node 1) that
// answers the announce with make_reply(announce).
BaseOtSenderOutput SendAgainstScriptedReceiver(
    int count, uint64_t seed, const std::function<Bytes(const Bytes&)>& make_reply) {
  net::SimNetwork net(2);
  std::thread peer([&] { net.Send(1, 0, make_reply(net.Recv(1, 0))); });
  auto prg = crypto::ChaCha20Prg::FromSeed(seed);
  BaseOtSenderOutput out = BaseOtSend(&net, 0, 1, count, prg);
  peer.join();
  return out;
}

// A reply whose transfers include infinity, A and -A among random points
// drives the sender through the infinity, cancellation (A - A) and doubling
// (-A - A) cases of a*(B_i - A). The keys must match the per-transfer
// definition H(i, a*B_i), H(i, a*(B_i - A)) with a re-derived from the seed.
TEST(BaseOtTest, DegenerateReplyMatchesPerTransferReference) {
  constexpr uint64_t kSeed = 62;
  auto point_prg = crypto::ChaCha20Prg::FromSeed(64);
  auto random_point = [&] { return crypto::MulBase(point_prg.NextScalar(crypto::CurveOrder())); };
  std::vector<EcPoint> points;
  BaseOtSenderOutput out = SendAgainstScriptedReceiver(10, kSeed, [&](const Bytes& announce) {
    EcPoint big_a = *EcPoint::Decompress(announce.data());
    points = {random_point(), EcPoint::Infinity(), big_a,          big_a.Neg(),
              random_point(), big_a,               random_point(), big_a.Neg(),
              EcPoint::Infinity(), random_point()};
    Bytes reply;
    for (const EcPoint& p : points) {
      auto enc = p.Compress();
      reply.insert(reply.end(), enc.begin(), enc.end());
    }
    return reply;
  });

  auto ref_prg = crypto::ChaCha20Prg::FromSeed(kSeed);
  crypto::U256 a = ref_prg.NextScalar(crypto::CurveOrder());
  EcPoint neg_a = crypto::MulBase(a).Neg();
  ASSERT_EQ(out.keys0.size(), points.size());
  for (size_t i = 0; i < points.size(); i++) {
    const uint32_t index = static_cast<uint32_t>(i);
    EXPECT_EQ(out.keys0[i], ReferenceKey(index, points[i].Mul(a).Compress())) << i;
    EXPECT_EQ(out.keys1[i], ReferenceKey(index, points[i].Add(neg_a).Mul(a).Compress())) << i;
  }
}

// Malformed replies abort the sender: an uncompressed-point prefix, an x
// coordinate >= p, and a reply one byte short.
TEST(BaseOtDeathTest, MalformedReplyAborts) {
  // Re-executes the binary for each death instead of forking it, which stays
  // safe when a sanitizer runs a thread of its own.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr int kCount = 3;
  auto valid_reply = [] {
    Bytes reply;
    for (int i = 1; i <= kCount; i++) {
      auto enc = crypto::MulBase(crypto::U256(static_cast<uint64_t>(i))).Compress();
      reply.insert(reply.end(), enc.begin(), enc.end());
    }
    return reply;
  };
  // The unmutated reply is accepted, so each abort below is the mutation's.
  EXPECT_EQ(SendAgainstScriptedReceiver(kCount, 65, [&](const Bytes&) { return valid_reply(); })
                .keys0.size(),
            static_cast<size_t>(kCount));
  Bytes uncompressed_prefix = valid_reply();
  uncompressed_prefix[EcPoint::kCompressedSize] = 0x04;
  Bytes x_too_large = valid_reply();
  crypto::Fp::P().ToBytesBe(x_too_large.data() + 2 * EcPoint::kCompressedSize + 1);
  Bytes short_reply = valid_reply();
  short_reply.pop_back();
  for (const Bytes& bad : {uncompressed_prefix, x_too_large, short_reply}) {
    EXPECT_DEATH(SendAgainstScriptedReceiver(kCount, 65, [&](const Bytes&) { return bad; }),
                 "CHECK failed");
  }
}

class IknpTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IknpTest, ExtensionDeliversChosenBits) {
  size_t count = GetParam();
  net::SimNetwork net(2);
  RandomOtPairs pairs;
  RandomOtChosen chosen;
  PackedBits choices(PackedWords(count), 0);
  auto choice_prg = crypto::ChaCha20Prg::FromSeed(50);
  choice_prg.Fill(reinterpret_cast<uint8_t*>(choices.data()), choices.size() * 8);

  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(5);
    IknpSender s(&net, 0, 1, prg);
    pairs = s.Extend(count);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(6);
    IknpReceiver r(&net, 1, 0, prg);
    chosen = r.Extend(choices, count);
  });
  sender.join();
  receiver.join();

  for (size_t j = 0; j < count; j++) {
    bool expect = GetBit(choices, j) ? GetBit(pairs.r1, j) : GetBit(pairs.r0, j);
    ASSERT_EQ(GetBit(chosen.r, j), expect) << "ot " << j;
  }
  // Sanity: the two sender strings differ in a nontrivial fraction of
  // positions (they are independent random bits).
  size_t differ = 0;
  for (size_t j = 0; j < count; j++) {
    differ += GetBit(pairs.r0, j) != GetBit(pairs.r1, j) ? 1 : 0;
  }
  if (count >= 64) {
    EXPECT_GT(differ, count / 4);
    EXPECT_LT(differ, 3 * count / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IknpTest, ::testing::Values(1, 63, 64, 65, 128, 1000, 4096));

TEST(IknpTest, RepeatedExtendsStayConsistent) {
  net::SimNetwork net(2);
  constexpr size_t kCount = 256;
  std::vector<RandomOtPairs> all_pairs;
  std::vector<RandomOtChosen> all_chosen;
  PackedBits choices(PackedWords(kCount), 0xAAAAAAAAAAAAAAAAULL);

  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(7);
    IknpSender s(&net, 0, 1, prg);
    for (int round = 0; round < 3; round++) {
      all_pairs.push_back(s.Extend(kCount));
    }
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(8);
    IknpReceiver r(&net, 1, 0, prg);
    for (int round = 0; round < 3; round++) {
      all_chosen.push_back(r.Extend(choices, kCount));
    }
  });
  sender.join();
  receiver.join();

  for (int round = 0; round < 3; round++) {
    for (size_t j = 0; j < kCount; j++) {
      bool expect = GetBit(choices, j) ? GetBit(all_pairs[round].r1, j)
                                       : GetBit(all_pairs[round].r0, j);
      ASSERT_EQ(GetBit(all_chosen[round].r, j), expect) << "round " << round << " ot " << j;
    }
  }
  // Different rounds must produce different randomness.
  EXPECT_NE(all_pairs[0].r0, all_pairs[1].r0);
}

// The Extend corpus shared by the transpose test and the golden transcript:
// partial, exact and multi-block counts.
constexpr size_t kExtendCounts[] = {1, 63, 64, 65, 130, 4096};

PackedBits RandomWords(size_t words, uint64_t seed, uint64_t stream) {
  PackedBits out(words);
  auto prg = crypto::ChaCha20Prg::FromSeed(seed, stream);
  prg.Fill(reinterpret_cast<uint8_t*>(out.data()), words * 8);
  return out;
}

// The per-bit transpose the block version replaced.
std::vector<uint64_t> ReferenceTranspose(const std::vector<PackedBits>& cols, size_t count) {
  std::vector<uint64_t> rows(2 * count, 0);
  for (int i = 0; i < kIknpKappa; i++) {
    for (size_t j = 0; j < count; j++) {
      if (GetBit(cols[i], j)) {
        rows[2 * j + i / 64] |= 1ULL << (i % 64);
      }
    }
  }
  return rows;
}

TEST(IknpKernelTest, BlockTransposeMatchesPerBitReference) {
  for (size_t count : kExtendCounts) {
    // Random columns, including the garbage bits past `count` in the last
    // word that the PRG leaves there in a real Extend.
    std::vector<PackedBits> cols;
    for (int i = 0; i < kIknpKappa; i++) {
      cols.push_back(RandomWords(PackedWords(count), 70, static_cast<uint64_t>(i)));
    }
    std::vector<uint64_t> rows(2 * count);
    TransposeColumns(cols, count, rows.data());
    EXPECT_EQ(rows, ReferenceTranspose(cols, count)) << "count " << count;
  }
}

// The hash's scalar definition, straight from crypto::ChaCha20Block.
bool ReferenceCrHash(uint64_t index, uint64_t lo, uint64_t hi) {
  uint8_t key[32];
  const uint64_t words[4] = {lo, hi, index, kCrHashTag};
  for (int w = 0; w < 4; w++) {
    for (int b = 0; b < 8; b++) {
      key[8 * w + b] = static_cast<uint8_t>(words[w] >> (8 * b));
    }
  }
  const uint8_t nonce[12] = {};
  uint8_t block[64];
  crypto::ChaCha20Block(key, nonce, 0, block);
  return (block[0] & 1) != 0;
}

using HashRowsFn = std::function<void(const uint64_t* rows, size_t count, uint64_t first_index,
                                       const uint64_t mask[2], uint64_t* out)>;

// Checks a lane kernel's hash against ReferenceCrHash. The counts cover a
// partial, a whole and a spilled pass at 4, 8 and 16 lanes, and partial,
// exact and multi-word outputs.
void ExpectHashMatchesReference(const HashRowsFn& hash) {
  const PackedBits s = RandomWords(2, 71, 0);
  const uint64_t zero[2] = {0, 0};
  // The second start index makes the OT indices cross 2^32 mid-array.
  for (uint64_t first : {uint64_t{0}, (uint64_t{1} << 32) - 2}) {
    for (size_t count : {1, 3, 4, 5, 15, 16, 17, 31, 33, 63, 64, 65, 4097}) {
      const PackedBits rows = RandomWords(2 * count, 72, count);
      for (const uint64_t* mask : {zero, s.data()}) {
        // One spare word past the output, poisoned, to catch overruns.
        PackedBits out(PackedWords(count) + 1, ~0ULL);
        hash(rows.data(), count, first, mask, out.data());
        for (size_t j = 0; j < count; j++) {
          const bool expect =
              ReferenceCrHash(first + j, rows[2 * j] ^ mask[0], rows[2 * j + 1] ^ mask[1]);
          ASSERT_EQ(GetBit(out, j), expect)
              << "count " << count << " first " << first << " ot " << j;
        }
        for (size_t j = count; j < 64 * PackedWords(count); j++) {
          ASSERT_FALSE(GetBit(out, j)) << "bit past count " << j;
        }
        EXPECT_EQ(out.back(), ~0ULL) << "wrote past the output, count " << count;
      }
    }
  }
}

TEST(IknpKernelTest, LaneKernelMatchesScalarChaChaDefinition) {
  ExpectHashMatchesReference([](const uint64_t* rows, size_t count, uint64_t first_index,
                                const uint64_t mask[2], uint64_t* out) {
    crypto::ChaCha20HashBits(rows, count, first_index, mask, kCrHashTag, out);
  });
}

// The same check at every width the kernel is compiled at; a width this
// CPU cannot run is skipped, not passed.
class IknpKernelWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(IknpKernelWidthTest, LaneKernelMatchesScalarChaChaDefinition) {
  const crypto::internal::ChaChaKernels* kernels = crypto::internal::ChaChaKernelsAt(GetParam());
  if (kernels == nullptr) {
    GTEST_SKIP() << "this CPU cannot run the " << GetParam() << "-lane kernel";
  }
  ExpectHashMatchesReference([kernels](const uint64_t* rows, size_t count, uint64_t first_index,
                                       const uint64_t mask[2], uint64_t* out) {
    kernels->hash_bits(rows, count, first_index, mask, kCrHashTag, out);
  });
}

INSTANTIATE_TEST_SUITE_P(Lanes, IknpKernelWidthTest,
                         ::testing::ValuesIn(crypto::internal::kChaChaLaneWidths),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

// Golden digest of a fixed-seed Extend transcript: one session pair runs
// the corpus as consecutive Extends (so later calls hash at nonzero OT
// indices), and every r0, r1 and r word is digested. A change to the hash,
// the transpose or the PRG column order moves it, so any such change has to
// be deliberate; paste the printed digest back only for one.
TEST(IknpKernelTest, ExtendTranscriptMatchesGoldenDigest) {
  net::SimNetwork net(2);
  std::vector<PackedBits> choices;
  for (size_t i = 0; i < std::size(kExtendCounts); i++) {
    choices.push_back(RandomWords(PackedWords(kExtendCounts[i]), 60, i));
  }
  std::vector<RandomOtPairs> pairs;
  std::vector<RandomOtChosen> chosen;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(21);
    IknpSender s(&net, 0, 1, prg);
    for (size_t count : kExtendCounts) {
      pairs.push_back(s.Extend(count));
    }
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(22);
    IknpReceiver r(&net, 1, 0, prg);
    for (size_t i = 0; i < std::size(kExtendCounts); i++) {
      chosen.push_back(r.Extend(choices[i], kExtendCounts[i]));
    }
  });
  sender.join();
  receiver.join();

  FidelityDigest digest;
  for (size_t i = 0; i < std::size(kExtendCounts); i++) {
    digest.Add(kExtendCounts[i]);
    for (size_t w = 0; w < PackedWords(kExtendCounts[i]); w++) {
      digest.Add(pairs[i].r0[w]).Add(pairs[i].r1[w]).Add(chosen[i].r[w]);
    }
  }
  ExpectGoldenDigest(digest.Hex(), "2e23a85972a9c94ec8241e1dd65e7367541f538266b24efd474b928c15e7b62b",
                     "IKNP Extend transcript");
}

}  // namespace
}  // namespace dstress::ot
