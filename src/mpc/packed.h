// PackedShareMatrix: the bitsliced share representation of the packed-share
// data plane (docs/packed-eval.md).
//
// W independent instances of the same bit-width quantity (circuit inputs,
// wire shares, outputs) are stored wire-major, instance-minor: row i holds
// bit i of every instance, with instance j at bit j%64 of word j/64. Local
// GMW gates (XOR, NOT, constants) and cleartext gate evaluation then act on
// whole rows — one uint64 word covers 64 instances — which is where the
// batched evaluation path gets its per-gate throughput.
//
// The layout trades off against the wire format: a GMW exchange ships each
// instance's d/e block contiguously (so the batched path's messages stay
// byte-identical to the unbatched path's, see batch_eval.h), which needs a
// row<->column transpose at the AND layers. Extract/insert helpers below do
// that per-instance; everything between two AND layers stays word-parallel.
#ifndef SRC_MPC_PACKED_H_
#define SRC_MPC_PACKED_H_

#include <cstdint>
#include <vector>

#include "src/mpc/sharing.h"

namespace dstress::mpc {

class PackedShareMatrix {
 public:
  PackedShareMatrix() = default;
  PackedShareMatrix(size_t rows, size_t instances)
      : rows_(rows),
        instances_(instances),
        wpr_((instances + 63) / 64),
        data_(rows * ((instances + 63) / 64), 0) {}

  size_t rows() const { return rows_; }
  size_t instances() const { return instances_; }
  // Words per row (= ceil(instances/64)); every row is this wide.
  size_t words_per_row() const { return wpr_; }

  uint64_t* row(size_t r) { return data_.data() + r * wpr_; }
  const uint64_t* row(size_t r) const { return data_.data() + r * wpr_; }
  uint64_t* data() { return data_.data(); }
  const uint64_t* data() const { return data_.data(); }

  bool Get(size_t r, size_t j) const { return (row(r)[j / 64] >> (j % 64)) & 1; }
  void Set(size_t r, size_t j, bool bit) {
    if (bit) {
      row(r)[j / 64] |= 1ULL << (j % 64);
    } else {
      row(r)[j / 64] &= ~(1ULL << (j % 64));
    }
  }

  // Column accessors: instance j as a one-bit-per-byte BitVector (the
  // unbatched representation). SetInstance requires bits.size() == rows().
  BitVector Instance(size_t j) const;
  void SetInstance(size_t j, const BitVector& bits);

  // Lane-group accessor for the graph plane's scenario lanes
  // (src/graphplane): a vertex's W lanes form one contiguous `count`-bit
  // group (count <= 64) that may straddle a word boundary. GetLaneGroup
  // reads the group of row r starting at lane `first`, without a per-bit
  // Get loop.
  uint64_t GetLaneGroup(size_t r, size_t first, int count) const;

  // Packs W same-length BitVectors (instances) into a matrix; instances[j]
  // becomes column j.
  static PackedShareMatrix FromInstances(const std::vector<BitVector>& instances);
  std::vector<BitVector> ToInstances() const;

 private:
  size_t rows_ = 0;
  size_t instances_ = 0;
  size_t wpr_ = 0;
  std::vector<uint64_t> data_;
};

}  // namespace dstress::mpc

#endif  // SRC_MPC_PACKED_H_
