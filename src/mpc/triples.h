// Beaver multiplication triples for boolean GMW.
//
// A bit triple is an XOR-sharing of (a, b, c) with c = a AND b. The GMW
// engine consumes one triple per AND gate: parties open d = x^a and
// e = y^b, then locally compute shares of x AND y.
//
// TripleSource has two implementations:
//
//  * The node-pair OT triple factory's views (triple_factory.h) — the real
//    protocol and the only OT-triple generator: every pair of block nodes
//    runs IKNP-extended random OTs to produce XOR shares of the cross terms
//    a_i AND b_j. This is what the paper's prototype does via the Choi et
//    al. GMW implementation with OT extensions.
//
//  * DealerTripleSource — a simulated offline phase: all parties derive
//    their shares deterministically from a shared dealer seed. This mode
//    provides NO privacy (any party can recompute the dealer tape) and
//    exists so that large benchmark sweeps can exercise the online phase at
//    scale; see docs/offline-phase.md.
#ifndef SRC_MPC_TRIPLES_H_
#define SRC_MPC_TRIPLES_H_

#include <cstdint>

#include "src/common/bits.h"

namespace dstress::mpc {

struct BitTriples {
  PackedBits a;
  PackedBits b;
  PackedBits c;
  size_t count = 0;
};

class TripleSource {
 public:
  virtual ~TripleSource() = default;
  // Every party of a group must make the same sequence of Generate calls
  // (the same counts in the same order); counts may vary call to call.
  // Neither implementation communicates at draw time.
  virtual BitTriples Generate(size_t count) = 0;
};

// Copies triples [start, start+count) of `src` into a fresh BitTriples.
// Factory views deal their draws out of a buffered stream this way.
BitTriples SliceTriples(const BitTriples& src, size_t start, size_t count);

class DealerTripleSource : public TripleSource {
 public:
  DealerTripleSource(int party_index, int num_parties, uint64_t dealer_seed);
  BitTriples Generate(size_t count) override;

  // Checkpoint support (src/ha/checkpoint.h): the call counter is this
  // source's only cross-call state, so persisting it and fast-forwarding a
  // freshly constructed source reproduces the tape position exactly.
  uint64_t calls() const { return calls_; }
  void FastForward(uint64_t calls) { calls_ = calls; }

 private:
  int party_index_;
  int num_parties_;
  uint64_t dealer_seed_;
  // Generate *calls* completed so far — advanced once per call, not once
  // per triple. The call counter selects a disjoint PRG stream-id range
  // under the fixed dealer seed, so parties stay in sync for any agreed
  // sequence of batch sizes and tapes can never collide with another
  // source's differently-seeded streams (the old per-bit advance perturbed
  // the seed itself, which adjacent sources could alias).
  uint64_t calls_ = 0;
};

}  // namespace dstress::mpc

#endif  // SRC_MPC_TRIPLES_H_
