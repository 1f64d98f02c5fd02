// The lane-parallel ChaCha20 kernel behind ChaCha20Prg::Fill and
// ChaCha20HashBits. Its bodies are written once, as templates over the
// lane count, and compiled at 4 lanes (the baseline: SSE2 on x86-64, NEON
// on arm64) and, on x86-64 only, at 8 lanes (AVX2) and 16 lanes
// (AVX-512F). The widest width the CPU runs is picked once per process.
// Library code calls the public entry points in chacha20.h; this header
// lets tests pin every width to ChaCha20Block. docs/offline-phase.md
// "The lane-parallel kernel" has the design.
#ifndef SRC_CRYPTO_CHACHA20_LANES_H_
#define SRC_CRYPTO_CHACHA20_LANES_H_

#include <cstddef>
#include <cstdint>

#include "src/crypto/chacha20.h"

namespace dstress::crypto::internal {

// Every width the kernel is compiled at on some target, narrowest first.
inline constexpr int kChaChaLaneWidths[] = {4, 8, 16};

// One width's compiled kernel.
struct ChaChaKernels {
  // The ChaCha20 blocks of `state` (ChaCha20Block's sixteen input words)
  // at counters state[12], state[12] + 1, ...: `blocks` of them to `out`,
  // 64 bytes each, then, when `last` is not null, one more to `last`.
  // Each pass gives every lane the next counter; lanes past the last block
  // are computed and dropped, so a block whose counter wrapped is never
  // written.
  void (*blocks)(const uint32_t state[16], size_t blocks, uint8_t* out, uint8_t* last);
  // ChaCha20HashBits at this width.
  void (*hash_bits)(const uint64_t* rows, size_t count, uint64_t first_index,
                    const uint64_t mask[2], uint64_t tag, uint64_t* out);
};

// The kernel at `lanes` lanes, or null when it is not compiled for this
// target or this CPU lacks its instructions.
const ChaChaKernels* ChaChaKernelsAt(int lanes);

// The widest kernel this CPU runs. Picked on the first call, which is
// thread-safe; every later call returns the same kernel.
const ChaChaKernels& SelectedChaChaKernels();

}  // namespace dstress::crypto::internal

#endif  // SRC_CRYPTO_CHACHA20_LANES_H_
