// XOR secret sharing over bit vectors.
//
// DStress represents every piece of confidential state as an XOR sharing
// among the k+1 members of a block: the value is the XOR of all shares, so
// any k shares are uniformly random (paper §3, "Secure multiparty
// computation"). These helpers create, combine and reconstruct such
// sharings; word values use a fixed little-endian bit order so circuit
// inputs and outputs line up across modules.
#ifndef SRC_MPC_SHARING_H_
#define SRC_MPC_SHARING_H_

#include <cstdint>
#include <vector>

#include "src/crypto/chacha20.h"

namespace dstress::mpc {

using BitVector = std::vector<uint8_t>;  // one bit per byte (0/1)

// Splits `bits` into `parties` XOR shares: all but the last are uniform.
std::vector<BitVector> ShareBits(const BitVector& bits, int parties, crypto::ChaCha20Prg& prg);

// XOR of all share vectors.
BitVector ReconstructBits(const std::vector<BitVector>& shares);

// Little-endian bit (de)composition of integer words, the canonical layout
// for circuit inputs/outputs.
BitVector WordToBits(uint64_t value, int bits);
// WordToBits in place: the low `bits` bits of value into dst[0, bits).
void StoreWordBits(uint64_t value, int bits, uint8_t* dst);
uint64_t BitsToWord(const BitVector& bits, size_t offset, int count);
// Sign-extended read (two's complement).
int64_t BitsToSignedWord(const BitVector& bits, size_t offset, int count);

// Concatenation helper for assembling circuit input vectors.
void AppendBits(BitVector* dst, const BitVector& src);

}  // namespace dstress::mpc

#endif  // SRC_MPC_SHARING_H_
