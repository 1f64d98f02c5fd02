// Packed bit vectors and the word-level kernels that move bits around in
// them without per-bit loops.
//
// Bits are packed little-endian into uint64 words: bit i lives at word
// i/64, bit i%64. The OT extension (src/ot), the triple plumbing and the
// bitsliced MPC and graph planes all share this layout.
#ifndef SRC_COMMON_BITS_H_
#define SRC_COMMON_BITS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dstress {

using PackedBits = std::vector<uint64_t>;

inline size_t PackedWords(size_t bits) { return (bits + 63) / 64; }
inline bool GetBit(const PackedBits& v, size_t i) { return (v[i / 64] >> (i % 64)) & 1; }
inline void SetBit(PackedBits& v, size_t i, bool bit) {
  if (bit) {
    v[i / 64] |= 1ULL << (i % 64);
  } else {
    v[i / 64] &= ~(1ULL << (i % 64));
  }
}

// In-place 64x64 bit-matrix transpose (the Hacker's Delight butterfly):
// afterwards, bit r of word c equals what bit c of word r was. This is the
// workhorse that moves data between bit-major and item-major layouts (the
// MPC share rows and wire format, the IKNP column matrix and its OT rows)
// without touching individual bits.
void TransposeBits64x64(uint64_t x[64]);

// Bit-range copy: bits [dst_off, dst_off + n) of dst become bits
// [src_off, src_off + n) of src. Works a destination word at a time with
// shifted source words and masked edge words; dst bits outside the range
// are preserved, and neither array is touched beyond the words its range
// covers (n = 0 touches nothing). The ranges must not overlap.
void CopyBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t n);

// As CopyBits, but XORs the source range into the destination range.
void XorBits(uint64_t* dst, size_t dst_off, const uint64_t* src, size_t src_off, size_t n);

}  // namespace dstress

#endif  // SRC_COMMON_BITS_H_
