#include "src/mpc/packed.h"

#include "src/common/check.h"

namespace dstress::mpc {

BitVector PackedShareMatrix::Instance(size_t j) const {
  DSTRESS_CHECK(j < instances_);
  BitVector out(rows_);
  for (size_t r = 0; r < rows_; r++) {
    out[r] = Get(r, j) ? 1 : 0;
  }
  return out;
}

void PackedShareMatrix::SetInstance(size_t j, const BitVector& bits) {
  DSTRESS_CHECK(j < instances_ && bits.size() == rows_);
  for (size_t r = 0; r < rows_; r++) {
    Set(r, j, bits[r] & 1);
  }
}

uint64_t PackedShareMatrix::GetLaneGroup(size_t r, size_t first, int count) const {
  DSTRESS_CHECK(count >= 1 && count <= 64 && first + count <= instances_);
  const uint64_t* w = row(r);
  const size_t word = first / 64;
  const int shift = static_cast<int>(first % 64);
  uint64_t bits = w[word] >> shift;
  if (shift != 0 && shift + count > 64) {
    bits |= w[word + 1] << (64 - shift);
  }
  if (count < 64) {
    bits &= (1ULL << count) - 1;
  }
  return bits;
}

PackedShareMatrix PackedShareMatrix::FromInstances(const std::vector<BitVector>& instances) {
  DSTRESS_CHECK(!instances.empty());
  PackedShareMatrix m(instances[0].size(), instances.size());
  for (size_t j = 0; j < instances.size(); j++) {
    m.SetInstance(j, instances[j]);
  }
  return m;
}

std::vector<BitVector> PackedShareMatrix::ToInstances() const {
  std::vector<BitVector> out;
  out.reserve(instances_);
  for (size_t j = 0; j < instances_; j++) {
    out.push_back(Instance(j));
  }
  return out;
}

}  // namespace dstress::mpc
