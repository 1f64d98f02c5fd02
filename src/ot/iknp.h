// IKNP oblivious-transfer extension (Ishai–Kilian–Nissim–Petrank 2003).
//
// Turns kappa = 128 base OTs (base_ot.h) into an unbounded stream of cheap
// random OTs on single bits using only symmetric crypto: a ChaCha20 PRG
// expands the base-OT keys into the column matrix, and a fixed-key ChaCha20
// permutation hashes each OT's row (kCrHashTag). The paper notes that
// Wysteria's GMW backend relies on exactly this optimization to keep MPC
// traffic low (§5.3, [41, 46]). docs/offline-phase.md "Cost of an extend"
// has the hash's definition, its security argument and measured costs.
//
// Roles are named from the *extension* point of view: the extension sender
// obtains random bit pairs (r0_j, r1_j); the extension receiver chooses c_j
// and learns r_{c_j}. Internally the base OTs run with the roles reversed.
//
// Output bits are packed little-endian into uint64 words: bit j of the
// stream lives at word j/64, bit j%64.
#ifndef SRC_OT_IKNP_H_
#define SRC_OT_IKNP_H_

#include <cstdint>
#include <vector>

#include "src/common/bits.h"
#include "src/crypto/chacha20.h"
#include "src/net/transport.h"
#include "src/ot/base_ot.h"

namespace dstress::ot {

inline constexpr int kIknpKappa = 128;

struct RandomOtPairs {
  PackedBits r0;
  PackedBits r1;
  size_t count = 0;
};

struct RandomOtChosen {
  PackedBits r;  // r_j = (c_j ? r1_j : r0_j)
  size_t count = 0;
};

// An Extend's transpose, exposed so tests can pin it to a per-bit
// reference. It transposes the kappa x count bit matrix whose column i
// is cols[i] into rows: row j is (rows[2j], rows[2j+1]), and its bit i is
// bit j of cols[i]. Runs as 64x64 block transposes, one per 64 OTs and
// 64-column half.
void TransposeColumns(const std::vector<PackedBits>& cols, size_t count, uint64_t* rows);

// Domain tag of the correlation-robust hash: the ASCII bytes "IKNP-CRH".
// An Extend hashes OT j's 128-bit row x (two little-endian words) as
//   H(j, x) = bit 0 of output word 0 of crypto::ChaCha20Block(
//       key = x || le64(j) || le64(kCrHashTag), nonce = 0, counter = 0),
// all rows at once through crypto::ChaCha20HashBits under this tag, which
// evaluates 4, 8 or 16 OTs at a time, as wide as the CPU's vector
// registers.
inline constexpr uint64_t kCrHashTag = 0x4852432D504E4B49ULL;

class IknpSender {
 public:
  // Runs the base-OT setup with `peer` (blocking; the peer must construct a
  // matching IknpReceiver).
  IknpSender(net::Transport* net, net::NodeId self, net::NodeId peer, crypto::ChaCha20Prg& prg,
             net::SessionId session = 0);

  // Produces `count` random OT pairs. Blocking: the receiver must call
  // Extend with the same count.
  RandomOtPairs Extend(size_t count);

 private:
  net::Transport* net_;
  net::NodeId self_;
  net::NodeId peer_;
  net::SessionId session_;
  PackedBits s_bits_;                         // kappa choice bits
  std::vector<crypto::ChaCha20Prg> seed_prg_;  // PRG(k_i^{s_i})
  uint64_t ot_counter_ = 0;
};

class IknpReceiver {
 public:
  IknpReceiver(net::Transport* net, net::NodeId self, net::NodeId peer, crypto::ChaCha20Prg& prg,
               net::SessionId session = 0);

  // choices is a packed bit vector of length >= count bits.
  RandomOtChosen Extend(const PackedBits& choices, size_t count);

 private:
  net::Transport* net_;
  net::NodeId self_;
  net::NodeId peer_;
  net::SessionId session_;
  std::vector<crypto::ChaCha20Prg> prg0_;  // PRG(k_i^0)
  std::vector<crypto::ChaCha20Prg> prg1_;  // PRG(k_i^1)
  uint64_t ot_counter_ = 0;
};

}  // namespace dstress::ot

#endif  // SRC_OT_IKNP_H_
