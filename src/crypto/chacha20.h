// ChaCha20 stream cipher (RFC 8439 block function) and a PRG built on it.
//
// ChaCha20Prg is the cryptographic randomness source for the protocol stack:
// ephemeral ElGamal keys, OT choice bits, GMW share masks, and the jointly
// seeded in-MPC noise draw all pull from instances of this generator.
#ifndef SRC_CRYPTO_CHACHA20_H_
#define SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/crypto/u256.h"

namespace dstress::crypto {

// Computes one 64-byte ChaCha20 block for (key, nonce, counter).
void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]);

// ChaCha's "expand 32-byte k" constants: words 0-3 of every block's state.
inline constexpr uint32_t kChaChaSigma[4] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};

// The 20-round ChaCha permutation of a 16-word state, in place and without
// the feed-forward. Generic over the word type so that the lane-parallel
// kernel (chacha20.cc, over vectors of 32-bit lanes) shares the round
// function with ChaCha20Block.
template <typename Word>
void ChaChaRounds(Word x[16]) {
  auto quarter_round = [](Word& a, Word& b, Word& c, Word& d) {
    a += b;
    d ^= a;
    d = (d << 16) | (d >> 16);
    c += d;
    b ^= c;
    b = (b << 12) | (b >> 20);
    a += b;
    d ^= a;
    d = (d << 8) | (d >> 24);
    c += d;
    b ^= c;
    b = (b << 7) | (b >> 25);
  };
  for (int round = 0; round < 10; round++) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

// The fixed-key ChaCha20 hash of 128-bit inputs, one output bit each: for
// j < count, bit j of `out` becomes
//   bit 0 of output word 0 of ChaCha20Block(
//       key = x_j || le64(first_index + j) || le64(tag), nonce = 0, counter = 0),
// where x_j is (rows[2j] ^ mask[0], rows[2j + 1] ^ mask[1]) as two
// little-endian words. `out` has (count + 63) / 64 words and is
// overwritten; bits past `count` are 0. IKNP's correlation-robust hash
// is this function under its domain tag (ot::kCrHashTag). Runs on the
// lane-parallel kernel (chacha20_lanes.h) at this CPU's width.
void ChaCha20HashBits(const uint64_t* rows, size_t count, uint64_t first_index,
                      const uint64_t mask[2], uint64_t tag, uint64_t* out);

class ChaCha20Prg {
 public:
  // Deterministic PRG from a 32-byte key. The 12-byte nonce defaults to a
  // stream id, letting one key derive independent streams.
  explicit ChaCha20Prg(const std::array<uint8_t, 32>& key, uint64_t stream_id = 0);
  // Convenience: derives the key by hashing a 64-bit seed. Test/simulation
  // entry point; protocol code should pass full-entropy keys.
  static ChaCha20Prg FromSeed(uint64_t seed, uint64_t stream_id = 0);

  // Draws of two or more whole blocks past the buffered one are written
  // straight into `out` by the lane-parallel kernel, several counter blocks
  // per pass; only the head and the tail go through the 64-byte buffer.
  void Fill(uint8_t* out, size_t len);
  // `count` uniform 64-bit words, written by one Fill over their bytes.
  std::vector<uint64_t> NextWords(size_t count) {
    std::vector<uint64_t> out(count);
    Fill(reinterpret_cast<uint8_t*>(out.data()), count * 8);
    return out;
  }
  Bytes NextBytes(size_t len);
  uint8_t NextByte();
  uint64_t NextU64();
  bool NextBit();
  // Uniform value below `bound` (rejection sampled).
  uint64_t NextBelow(uint64_t bound);
  // Uniform 256-bit value.
  U256 NextU256();
  // Uniform nonzero scalar below `order` (rejection sampled) — used for
  // ElGamal secret/ephemeral keys and neighbor keys.
  U256 NextScalar(const U256& order);

 private:
  void Refill();

  uint8_t key_[32];
  uint8_t nonce_[12];
  uint32_t counter_ = 0;
  uint8_t block_[64];
  size_t pos_ = 64;
  // Bit-level buffer for NextBit().
  uint8_t bit_byte_ = 0;
  int bits_left_ = 0;
};

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_CHACHA20_H_
