#include "src/common/bits.h"

namespace dstress {

namespace {

// Bits [pos, pos + len) of src in the low len bits of the result, for
// 1 <= len <= 64; the bits above len are unspecified. Reads the second
// word only when the range straddles into it.
uint64_t LoadBits(const uint64_t* src, size_t pos, size_t len) {
  const size_t word = pos / 64;
  const unsigned shift = pos % 64;
  uint64_t bits = src[word] >> shift;
  if (shift != 0 && shift + len > 64) {
    bits |= src[word + 1] << (64 - shift);
  }
  return bits;
}

// Walks the destination range a word at a time: a partial head word, whole
// words, then a partial tail word. `op(word, mask, bits)` stores the
// source bits (already shifted into place) under `mask`.
template <typename Op>
void ForEachDstWord(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t n,
                    Op op) {
  while (n > 0) {
    const unsigned shift = dst_off % 64;
    const size_t take = n < 64 - shift ? n : 64 - shift;
    const uint64_t mask = (take == 64 ? ~0ULL : (1ULL << take) - 1) << shift;
    op(dst[dst_off / 64], mask, LoadBits(src, src_off, take) << shift);
    dst_off += take;
    src_off += take;
    n -= take;
  }
}

}  // namespace

void TransposeBits64x64(uint64_t x[64]) {
  // Butterfly formulated for LSB-first bit order (bit c of word r is
  // element (r, c)): each stage swaps the (row-low, col-high) quadrant
  // with the (row-high, col-low) quadrant at its scale.
  uint64_t mask = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      uint64_t t = ((x[k] >> j) ^ x[k + j]) & mask;
      x[k] ^= t << j;
      x[k + j] ^= t;
    }
  }
}

void CopyBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t n) {
  ForEachDstWord(dst, dst_off, src, src_off, n, [](uint64_t& word, uint64_t mask, uint64_t bits) {
    word = (word & ~mask) | (bits & mask);
  });
}

void XorBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t n) {
  ForEachDstWord(dst, dst_off, src, src_off, n,
                 [](uint64_t& word, uint64_t mask, uint64_t bits) { word ^= bits & mask; });
}

}  // namespace dstress
