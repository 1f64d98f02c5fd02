#include "src/crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/chacha20_lanes.h"
#include "src/crypto/sha256.h"

namespace dstress::crypto {

namespace {

uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// ChaCha20Block's sixteen input words.
void InitState(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
               uint32_t state[16]) {
  for (int i = 0; i < 4; i++) {
    state[i] = kChaChaSigma[i];
  }
  for (int i = 0; i < 8; i++) {
    state[4 + i] = LoadLe32(key + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; i++) {
    state[13 + i] = LoadLe32(nonce + 4 * i);
  }
}

// The lane-parallel kernel. Lane k of a pass is one block computation: word
// i of its state is element k of vector x[i]. The vector types are GCC
// extensions at namespace scope (a vector_size attribute on a dependent
// typedef would be dropped), and each width's code comes from the target
// its entry point is compiled for. Vectors stay inside the inlined bodies
// and arrays go by pointer: a 64-byte vector passed or returned by value
// without AVX-512 enabled is an ABI change that GCC warns about (-Wpsabi).
typedef uint32_t U32x4 __attribute__((vector_size(16)));
typedef uint32_t U32x8 __attribute__((vector_size(32)));
typedef uint32_t U32x16 __attribute__((vector_size(64)));

template <int W>
struct LaneVector;
template <>
struct LaneVector<4> {
  typedef U32x4 type;
};
template <>
struct LaneVector<8> {
  typedef U32x8 type;
};
template <>
struct LaneVector<16> {
  typedef U32x16 type;
};

template <int W>
inline void BlocksBody(const uint32_t state[16], size_t blocks, uint8_t* out, uint8_t* last) {
  typedef typename LaneVector<W>::type Vec;
  const size_t total = blocks + (last != nullptr ? 1 : 0);
  // in[i][k] is state word i of lane k, and words[i][k] output word i of
  // lane k's block (the permutation plus the feed-forward).
  uint32_t in[16][W] = {};
  for (int i = 0; i < 16; i++) {
    for (int k = 0; k < W; k++) {
      in[i][k] = state[i];
    }
  }
  uint32_t words[16][W] = {};
  for (size_t b = 0; b < total; b += W) {
    for (int k = 0; k < W; k++) {
      in[12][k] = state[12] + static_cast<uint32_t>(b + static_cast<size_t>(k));
    }
    Vec x[16];
    std::memcpy(x, in, sizeof(x));
    ChaChaRounds(x);
    for (int i = 0; i < 16; i++) {
      Vec s;
      std::memcpy(&s, in[i], sizeof(s));
      x[i] += s;
    }
    std::memcpy(words, x, sizeof(x));
    const size_t lanes = std::min<size_t>(W, total - b);
    for (size_t k = 0; k < lanes; k++) {
      uint8_t* dst = b + k < blocks ? out + 64 * (b + k) : last;
      for (int i = 0; i < 16; i++) {
        std::memcpy(dst + 4 * i, &words[i][k], 4);
      }
    }
  }
}

template <int W>
inline void HashBitsBody(const uint64_t* rows, size_t count, uint64_t first_index,
                         const uint64_t mask[2], uint64_t tag, uint64_t* out) {
  typedef typename LaneVector<W>::type Vec;
  std::fill_n(out, (count + 63) / 64, 0);
  for (size_t j = 0; j < count; j += W) {
    // Lane k hashes input j + k. Lanes past `count` hash a zero row and are
    // dropped, so no row past the end is read.
    const size_t lanes = std::min<size_t>(W, count - j);
    Vec x[16] = {};
    for (int i = 0; i < 4; i++) {
      x[i] += kChaChaSigma[i];
    }
    for (int k = 0; k < W; k++) {
      const size_t at = j + static_cast<size_t>(k);
      if (static_cast<size_t>(k) < lanes) {
        const uint64_t lo = rows[2 * at] ^ mask[0];
        const uint64_t hi = rows[2 * at + 1] ^ mask[1];
        x[4][k] = static_cast<uint32_t>(lo);
        x[5][k] = static_cast<uint32_t>(lo >> 32);
        x[6][k] = static_cast<uint32_t>(hi);
        x[7][k] = static_cast<uint32_t>(hi >> 32);
      }
      const uint64_t index = first_index + at;
      x[8][k] = static_cast<uint32_t>(index);
      x[9][k] = static_cast<uint32_t>(index >> 32);
    }
    x[10] += static_cast<uint32_t>(tag);
    x[11] += static_cast<uint32_t>(tag >> 32);
    // Words 12-15 (block counter and nonce) stay zero.
    ChaChaRounds(x);
    // The feed-forward, on the one output word the hash keeps.
    const Vec word0 = x[0] + kChaChaSigma[0];
    uint64_t bits = 0;
    for (int k = 0; k < W; k++) {
      bits |= static_cast<uint64_t>(word0[k] & 1) << k;
    }
    // W divides 64, so a pass never straddles an output word.
    out[j / 64] |= (bits & ((uint64_t{1} << lanes) - 1)) << (j % 64);
  }
}

// Each width's entry points. `flatten` inlines the bodies, ChaChaRounds
// included, so every vector instruction is compiled for the entry point's
// target.
__attribute__((flatten)) void Blocks4(const uint32_t state[16], size_t blocks, uint8_t* out,
                                      uint8_t* last) {
  BlocksBody<4>(state, blocks, out, last);
}
__attribute__((flatten)) void HashBits4(const uint64_t* rows, size_t count, uint64_t first_index,
                                        const uint64_t mask[2], uint64_t tag, uint64_t* out) {
  HashBitsBody<4>(rows, count, first_index, mask, tag, out);
}
constexpr internal::ChaChaKernels kLanes4 = {Blocks4, HashBits4};

}  // namespace

#if defined(__x86_64__)
namespace {

// Explicit dispatch on cpuid, not target_clones: its ifunc resolver runs
// while the program is loaded, and a ThreadSanitizer build of it segfaults
// before main.
__attribute__((target("avx2"), flatten)) void Blocks8(const uint32_t state[16], size_t blocks,
                                                      uint8_t* out, uint8_t* last) {
  BlocksBody<8>(state, blocks, out, last);
}
__attribute__((target("avx2"), flatten)) void HashBits8(const uint64_t* rows, size_t count,
                                                        uint64_t first_index,
                                                        const uint64_t mask[2], uint64_t tag,
                                                        uint64_t* out) {
  HashBitsBody<8>(rows, count, first_index, mask, tag, out);
}
__attribute__((target("avx512f"), flatten)) void Blocks16(const uint32_t state[16], size_t blocks,
                                                          uint8_t* out, uint8_t* last) {
  BlocksBody<16>(state, blocks, out, last);
}
__attribute__((target("avx512f"), flatten)) void HashBits16(const uint64_t* rows, size_t count,
                                                            uint64_t first_index,
                                                            const uint64_t mask[2], uint64_t tag,
                                                            uint64_t* out) {
  HashBitsBody<16>(rows, count, first_index, mask, tag, out);
}
constexpr internal::ChaChaKernels kLanes8 = {Blocks8, HashBits8};
constexpr internal::ChaChaKernels kLanes16 = {Blocks16, HashBits16};

}  // namespace

const internal::ChaChaKernels* internal::ChaChaKernelsAt(int lanes) {
  __builtin_cpu_init();
  switch (lanes) {
    case 4:
      return &kLanes4;
    case 8:
      return __builtin_cpu_supports("avx2") ? &kLanes8 : nullptr;
    case 16:
      return __builtin_cpu_supports("avx512f") ? &kLanes16 : nullptr;
    default:
      return nullptr;
  }
}
#else
const internal::ChaChaKernels* internal::ChaChaKernelsAt(int lanes) {
  return lanes == 4 ? &kLanes4 : nullptr;
}
#endif

const internal::ChaChaKernels& internal::SelectedChaChaKernels() {
  static const ChaChaKernels* const selected = [] {
    const ChaChaKernels* widest = &kLanes4;
    for (int lanes : kChaChaLaneWidths) {
      if (const ChaChaKernels* k = ChaChaKernelsAt(lanes)) {
        widest = k;
      }
    }
    return widest;
  }();
  return *selected;
}

void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]) {
  uint32_t state[16];
  InitState(key, nonce, counter, state);

  uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  ChaChaRounds(x);
  for (int i = 0; i < 16; i++) {
    uint32_t v = x[i] + state[i];
    std::memcpy(out + 4 * i, &v, 4);
  }
}

ChaCha20Prg::ChaCha20Prg(const std::array<uint8_t, 32>& key, uint64_t stream_id) {
  std::memcpy(key_, key.data(), 32);
  std::memset(nonce_, 0, sizeof(nonce_));
  std::memcpy(nonce_, &stream_id, 8);
}

ChaCha20Prg ChaCha20Prg::FromSeed(uint64_t seed, uint64_t stream_id) {
  uint8_t seed_bytes[8];
  std::memcpy(seed_bytes, &seed, 8);
  Sha256Digest digest = Sha256::Hash(seed_bytes, 8);
  std::array<uint8_t, 32> key;
  std::memcpy(key.data(), digest.data(), 32);
  return ChaCha20Prg(key, stream_id);
}

void ChaCha20HashBits(const uint64_t* rows, size_t count, uint64_t first_index,
                      const uint64_t mask[2], uint64_t tag, uint64_t* out) {
  internal::SelectedChaChaKernels().hash_bits(rows, count, first_index, mask, tag, out);
}

void ChaCha20Prg::Refill() {
  ChaCha20Block(key_, nonce_, counter_, block_);
  counter_++;
  DSTRESS_CHECK(counter_ != 0);  // 256 GiB per stream is far beyond any run.
  pos_ = 0;
}

void ChaCha20Prg::Fill(uint8_t* out, size_t len) {
  // The head: what is left of the buffered block.
  size_t take = std::min<size_t>(len, 64 - pos_);
  if (take > 0) {
    std::memcpy(out, block_ + pos_, take);
    pos_ += take;
    out += take;
    len -= take;
  }
  if (len >= 128) {
    // Two or more whole blocks go straight into `out`; the tail's block,
    // if any, comes from the same passes into the buffer. The check keeps
    // Refill's meaning: no block with a wrapped counter is emitted.
    const size_t blocks = len / 64;
    const size_t tail = len % 64;
    const uint64_t used = blocks + (tail > 0 ? 1 : 0);
    DSTRESS_CHECK(counter_ + used < (uint64_t{1} << 32));
    uint32_t state[16];
    InitState(key_, nonce_, counter_, state);
    internal::SelectedChaChaKernels().blocks(state, blocks, out, tail > 0 ? block_ : nullptr);
    counter_ += static_cast<uint32_t>(used);
    if (tail > 0) {
      std::memcpy(out + 64 * blocks, block_, tail);
    }
    pos_ = tail > 0 ? tail : 64;
    return;
  }
  while (len > 0) {
    Refill();
    take = std::min<size_t>(len, 64);
    std::memcpy(out, block_, take);
    pos_ = take;
    out += take;
    len -= take;
  }
}

Bytes ChaCha20Prg::NextBytes(size_t len) {
  Bytes out(len);
  Fill(out.data(), len);
  return out;
}

uint8_t ChaCha20Prg::NextByte() {
  uint8_t b;
  Fill(&b, 1);
  return b;
}

uint64_t ChaCha20Prg::NextU64() {
  uint64_t v;
  Fill(reinterpret_cast<uint8_t*>(&v), 8);
  return v;
}

bool ChaCha20Prg::NextBit() {
  if (bits_left_ == 0) {
    bit_byte_ = NextByte();
    bits_left_ = 8;
  }
  bool bit = (bit_byte_ & 1) != 0;
  bit_byte_ >>= 1;
  bits_left_--;
  return bit;
}

uint64_t ChaCha20Prg::NextBelow(uint64_t bound) {
  DSTRESS_CHECK(bound > 0);
  uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

U256 ChaCha20Prg::NextU256() {
  uint8_t raw[32];
  Fill(raw, 32);
  return U256::FromBytesBe(raw);
}

U256 ChaCha20Prg::NextScalar(const U256& order) {
  // Draw only BitLength(order) bits so the acceptance probability is at
  // least 1/2 regardless of how small the order is; sampling full 256-bit
  // values would essentially never terminate for short orders.
  const int bits = order.BitLength() + 1;  // BitLength is the top set bit index
  for (;;) {
    U256 v = NextU256();
    if (bits < 256) {
      v = Shr(v, 256 - bits);
    }
    if (!v.IsZero() && Cmp(v, order) < 0) {
      return v;
    }
  }
}

}  // namespace dstress::crypto
