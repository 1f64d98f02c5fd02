#include "src/crypto/chacha20.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "src/crypto/chacha20_lanes.h"

namespace dstress::crypto {
namespace {

std::array<uint8_t, 32> TestKey(uint8_t salt) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; i++) {
    key[static_cast<size_t>(i)] = static_cast<uint8_t>(i * 37 + salt);
  }
  return key;
}

// ChaCha20Prg(key, stream_id)'s byte stream by definition: ChaCha20Block at
// counters 0, 1, 2, ... under nonce le64(stream_id) || 0, one block at a
// time.
Bytes ReferenceStream(const std::array<uint8_t, 32>& key, uint64_t stream_id, size_t len) {
  uint8_t nonce[12] = {};
  std::memcpy(nonce, &stream_id, 8);
  Bytes out((len + 63) / 64 * 64);
  for (size_t b = 0; b < out.size() / 64; b++) {
    ChaCha20Block(key.data(), nonce, static_cast<uint32_t>(b), out.data() + 64 * b);
  }
  out.resize(len);
  return out;
}

// ChaCha20HashBits by definition, one ChaCha20Block per input.
bool ReferenceHashBit(uint64_t index, uint64_t lo, uint64_t hi, uint64_t tag) {
  uint8_t key[32];
  const uint64_t words[4] = {lo, hi, index, tag};
  std::memcpy(key, words, 32);
  const uint8_t nonce[12] = {};
  uint8_t block[64];
  ChaCha20Block(key, nonce, 0, block);
  return (block[0] & 1) != 0;
}

// The kernel width is picked lazily, on the first hash or bulk PRG call, and
// the triple factory's node tasks reach the kernel together on a run's
// first wave. This test makes the first calls of this process from 8
// threads at once (it is the binary's first test, and CI runs it under
// ThreadSanitizer) and checks every thread's output.
TEST(ChaChaLaneDispatchTest, FirstCallsFromEightThreadsAgree) {
  constexpr int kThreads = 8;
  constexpr size_t kInputs = 100;
  constexpr size_t kBytes = 1000;
  const uint64_t tag = 0x5441472D54534554ULL;
  const uint64_t mask[2] = {0, 0};
  std::vector<uint64_t> rows(2 * kInputs);
  for (size_t i = 0; i < rows.size(); i++) {
    rows[i] = i * 0x9E3779B97F4A7C15ULL;
  }
  std::vector<std::vector<uint64_t>> hashes(kThreads, std::vector<uint64_t>(2));
  std::vector<Bytes> streams(kThreads, Bytes(kBytes));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      ChaCha20HashBits(rows.data(), kInputs, 0, mask, tag, hashes[t].data());
      ChaCha20Prg prg(TestKey(static_cast<uint8_t>(t)), static_cast<uint64_t>(t));
      prg.Fill(streams[t].data(), kBytes);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; t++) {
    for (size_t j = 0; j < kInputs; j++) {
      const bool bit = (hashes[t][j / 64] >> (j % 64)) & 1;
      ASSERT_EQ(bit, ReferenceHashBit(j, rows[2 * j], rows[2 * j + 1], tag))
          << "thread " << t << " input " << j;
    }
    EXPECT_EQ(streams[t], ReferenceStream(TestKey(static_cast<uint8_t>(t)),
                                          static_cast<uint64_t>(t), kBytes))
        << "thread " << t;
  }
}

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20Test, Rfc8439BlockVector) {
  uint8_t key[32];
  for (int i = 0; i < 32; i++) {
    key[i] = static_cast<uint8_t>(i);
  }
  uint8_t nonce[12] = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  uint8_t out[64];
  ChaCha20Block(key, nonce, 1, out);
  const std::string expected =
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e";
  EXPECT_EQ(HexEncode(out, 64), expected);
}

TEST(ChaCha20PrgTest, Deterministic) {
  auto a = ChaCha20Prg::FromSeed(123);
  auto b = ChaCha20Prg::FromSeed(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(ChaCha20PrgTest, StreamsAreIndependent) {
  auto a = ChaCha20Prg::FromSeed(123, 0);
  auto b = ChaCha20Prg::FromSeed(123, 1);
  int same = 0;
  for (int i = 0; i < 64; i++) {
    if (a.NextByte() == b.NextByte()) {
      same++;
    }
  }
  EXPECT_LT(same, 16);  // expected ~0.25% per byte; 16/64 would be wild
}

TEST(ChaCha20PrgTest, FillCrossesBlockBoundaries) {
  auto a = ChaCha20Prg::FromSeed(9);
  auto b = ChaCha20Prg::FromSeed(9);
  Bytes big = a.NextBytes(200);
  Bytes parts;
  for (size_t chunk : {1u, 63u, 64u, 65u, 7u}) {
    Bytes part = b.NextBytes(chunk);
    parts.insert(parts.end(), part.begin(), part.end());
  }
  ASSERT_EQ(parts.size(), 200u);
  EXPECT_EQ(parts, big);
}

TEST(ChaCha20PrgTest, NextBelowIsInRangeAndRoughlyUniform) {
  auto prg = ChaCha20Prg::FromSeed(77);
  constexpr uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < 10000; i++) {
    uint64_t v = prg.NextBelow(kBound);
    ASSERT_LT(v, kBound);
    counts[v]++;
  }
  for (uint64_t v = 0; v < kBound; v++) {
    EXPECT_GT(counts[v], 800) << "bucket " << v;
    EXPECT_LT(counts[v], 1200) << "bucket " << v;
  }
}

TEST(ChaCha20PrgTest, NextScalarBelowOrderAndNonzero) {
  auto prg = ChaCha20Prg::FromSeed(5);
  U256 order = U256::FromHex("ffffffff00000000ffffffff00000000");
  for (int i = 0; i < 50; i++) {
    U256 v = prg.NextScalar(order);
    EXPECT_FALSE(v.IsZero());
    EXPECT_LT(Cmp(v, order), 0);
  }
}

TEST(ChaCha20PrgTest, BitsAreBalanced) {
  auto prg = ChaCha20Prg::FromSeed(31);
  int ones = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; i++) {
    ones += prg.NextBit() ? 1 : 0;
  }
  EXPECT_GT(ones, kTrials / 2 - 300);
  EXPECT_LT(ones, kTrials / 2 + 300);
}

// The factory keeps ~25-29 K column PRGs alive at N=10 (384 per node-pair
// session), so the bulk path adds no state: 128 bytes, as before it.
TEST(ChaCha20PrgTest, ObjectDoesNotGrow) { EXPECT_LE(sizeof(ChaCha20Prg), 128u); }

// Every width the kernel is compiled at; a width this CPU cannot run is
// skipped, not passed.
class ChaChaLaneTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    kernels_ = internal::ChaChaKernelsAt(GetParam());
    if (kernels_ == nullptr) {
      GTEST_SKIP() << "this CPU cannot run the " << GetParam() << "-lane kernel";
    }
  }

  const internal::ChaChaKernels* kernels_ = nullptr;
};

TEST_P(ChaChaLaneTest, BlocksMatchScalarBlockFunction) {
  const std::array<uint8_t, 32> key = TestKey(1);
  const uint8_t nonce[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  for (size_t blocks = 0; blocks <= 40; blocks++) {
    for (bool spill : {false, true}) {
      const size_t total = blocks + (spill ? 1 : 0);
      // The last start puts the final block at counter 2^32 - 1, so the
      // dropped lanes of the last pass wrap.
      for (uint64_t first : {uint64_t{0}, uint64_t{5}, (uint64_t{1} << 32) - total}) {
        // ChaCha20Block's sixteen input words (RFC 8439 §2.3).
        uint32_t state[16];
        std::memcpy(state, kChaChaSigma, 16);
        std::memcpy(state + 4, key.data(), 32);
        state[12] = static_cast<uint32_t>(first);
        std::memcpy(state + 13, nonce, 12);
        // One poisoned block past each output catches overruns.
        Bytes out(64 * (blocks + 1), 0xA5);
        Bytes last(128, 0xA5);
        kernels_->blocks(state, blocks, out.data(), spill ? last.data() : nullptr);
        for (size_t b = 0; b < total; b++) {
          uint8_t expect[64];
          ChaCha20Block(key.data(), nonce, static_cast<uint32_t>(first + b), expect);
          const uint8_t* got = b < blocks ? out.data() + 64 * b : last.data();
          ASSERT_EQ(HexEncode(got, 64), HexEncode(expect, 64))
              << "blocks " << blocks << " spill " << spill << " first " << first << " block "
              << b;
        }
        ASSERT_TRUE(std::all_of(out.end() - 64, out.end(), [](uint8_t v) { return v == 0xA5; }))
            << "wrote past the blocks, blocks " << blocks;
        ASSERT_TRUE(std::all_of(last.begin() + 64, last.end(),
                                [](uint8_t v) { return v == 0xA5; }));
        if (!spill) {
          ASSERT_EQ(last[0], 0xA5) << "wrote a spill block that was not asked for";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, ChaChaLaneTest, ::testing::ValuesIn(internal::kChaChaLaneWidths),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param);
                         });

// A reference PRG reading ReferenceStream, with ChaCha20Prg's NextU64,
// NextBit and NextScalar written over it.
class ReferencePrg {
 public:
  ReferencePrg(const std::array<uint8_t, 32>& key, uint64_t stream_id, size_t len)
      : stream_(ReferenceStream(key, stream_id, len)) {}

  const uint8_t* Take(size_t len) {
    EXPECT_LE(pos_ + len, stream_.size());
    const uint8_t* p = stream_.data() + pos_;
    pos_ += len;
    return p;
  }
  uint64_t NextU64() {
    uint64_t v;
    std::memcpy(&v, Take(8), 8);
    return v;
  }
  bool NextBit() {
    if (bits_left_ == 0) {
      bit_byte_ = *Take(1);
      bits_left_ = 8;
    }
    const bool bit = (bit_byte_ & 1) != 0;
    bit_byte_ >>= 1;
    bits_left_--;
    return bit;
  }
  U256 NextScalar(const U256& order) {
    const int bits = order.BitLength() + 1;
    for (;;) {
      U256 v = U256::FromBytesBe(Take(32));
      if (bits < 256) {
        v = Shr(v, 256 - bits);
      }
      if (!v.IsZero() && Cmp(v, order) < 0) {
        return v;
      }
    }
  }

 private:
  Bytes stream_;
  size_t pos_ = 0;
  uint8_t bit_byte_ = 0;
  int bits_left_ = 0;
};

// Fill's head, bulk and tail paths (the bulk path on the kernel this CPU
// selected; ChaChaLaneTest pins every width's blocks).
TEST(ChaCha20PrgTest, FillFromEveryBufferOffsetMatchesReference) {
  const std::array<uint8_t, 32> key = TestKey(2);
  // Sizes around one and two whole blocks (the bulk threshold) and larger.
  const size_t sizes[] = {1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 1000, 1024, 4096};
  const Bytes stream = ReferenceStream(key, 3, 64 + 4096 + 64);
  for (size_t offset = 0; offset < 64; offset++) {
    for (size_t size : sizes) {
      ChaCha20Prg prg(key, 3);
      Bytes head(offset + 1);
      prg.Fill(head.data(), offset);
      Bytes out(size);
      prg.Fill(out.data(), size);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), stream.begin() + offset))
          << "offset " << offset << " size " << size;
      // The buffered tail continues the stream.
      uint64_t next;
      std::memcpy(&next, stream.data() + offset + size, 8);
      ASSERT_EQ(prg.NextU64(), next) << "offset " << offset << " size " << size;
    }
  }
}

TEST(ChaCha20PrgTest, RandomInterleavingsMatchReference) {
  const std::array<uint8_t, 32> key = TestKey(3);
  const U256 order = U256::FromHex("ffffffff00000000ffffffff00000000");
  std::mt19937_64 rng(23);
  ChaCha20Prg prg(key, 9);
  ReferencePrg ref(key, 9, 1 << 21);
  for (int op = 0; op < 600; op++) {
    switch (rng() % 4) {
      case 0: {
        const size_t len = 1 + rng() % 4096;
        Bytes out(len);
        prg.Fill(out.data(), len);
        const uint8_t* expect = ref.Take(len);
        ASSERT_TRUE(std::equal(out.begin(), out.end(), expect)) << "op " << op << " Fill " << len;
        break;
      }
      case 1:
        ASSERT_EQ(prg.NextU64(), ref.NextU64()) << "op " << op;
        break;
      case 2:
        for (int i = 0; i < 11; i++) {
          ASSERT_EQ(prg.NextBit(), ref.NextBit()) << "op " << op;
        }
        break;
      default:
        ASSERT_EQ(prg.NextScalar(order), ref.NextScalar(order)) << "op " << op;
        break;
    }
  }
}

}  // namespace
}  // namespace dstress::crypto
