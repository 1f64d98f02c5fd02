#include <gtest/gtest.h>

#include <iterator>
#include <thread>

#include "src/net/sim_network.h"
#include "src/ot/base_ot.h"
#include "src/ot/iknp.h"
#include "tests/fidelity_digest.h"

namespace dstress::ot {
namespace {

TEST(BaseOtTest, ReceiverLearnsChosenKeyOnly) {
  net::SimNetwork net(2);
  constexpr int kCount = 32;
  std::vector<bool> choices(kCount);
  for (int i = 0; i < kCount; i++) {
    choices[i] = (i % 3) == 0;
  }
  BaseOtSenderOutput sender_out;
  BaseOtReceiverOutput receiver_out;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(1);
    sender_out = BaseOtSend(&net, 0, 1, kCount, prg);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(2);
    receiver_out = BaseOtRecv(&net, 1, 0, choices, prg);
  });
  sender.join();
  receiver.join();
  ASSERT_EQ(sender_out.keys0.size(), static_cast<size_t>(kCount));
  ASSERT_EQ(receiver_out.keys.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; i++) {
    const OtKey& chosen = choices[i] ? sender_out.keys1[i] : sender_out.keys0[i];
    const OtKey& other = choices[i] ? sender_out.keys0[i] : sender_out.keys1[i];
    EXPECT_EQ(receiver_out.keys[i], chosen) << i;
    EXPECT_NE(receiver_out.keys[i], other) << i;
  }
}

TEST(BaseOtTest, KeysAreDistinctAcrossTransfers) {
  net::SimNetwork net(2);
  BaseOtSenderOutput sender_out;
  std::thread sender([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(3);
    sender_out = BaseOtSend(&net, 0, 1, 8, prg);
  });
  std::thread receiver([&] {
    auto prg = crypto::ChaCha20Prg::FromSeed(4);
    BaseOtRecv(&net, 1, 0, std::vector<bool>(8, false), prg);
  });
  sender.join();
  receiver.join();
  for (int i = 0; i < 8; i++) {
    for (int j = i + 1; j < 8; j++) {
      EXPECT_NE(sender_out.keys0[i], sender_out.keys0[j]);
    }
    EXPECT_NE(sender_out.keys0[i], sender_out.keys1[i]);
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

TEST(IknpKernelTest, LaneKernelMatchesScalarChaChaDefinition) {
  const PackedBits s = RandomWords(2, 71, 0);
  const uint64_t zero[2] = {0, 0};
  // The second start index makes the OT indices cross 2^32 mid-array.
  for (uint64_t first : {uint64_t{0}, (uint64_t{1} << 32) - 2}) {
    for (size_t count : {1, 3, 4, 5, 63, 64, 65, 4097}) {
      const PackedBits rows = RandomWords(2 * count, 72, count);
      for (const uint64_t* mask : {zero, s.data()}) {
        // One spare word past the output, poisoned, to catch overruns.
        PackedBits out(PackedWords(count) + 1, ~0ULL);
        CrHashRows(rows.data(), count, first, mask, out.data());
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
