// Beaver multiplication triples for boolean GMW.
//
// A bit triple is an XOR-sharing of (a, b, c) with c = a AND b. The GMW
// engine consumes one triple per AND gate: parties open d = x^a and
// e = y^b, then locally compute shares of x AND y.
//
// Two sources are provided:
//
//  * OtTripleSource — the real protocol. Every ordered pair of parties runs
//    IKNP-extended random OTs to produce XOR shares of the cross terms
//    a_i AND b_j; sessions are scheduled with a round-robin tournament so
//    disjoint pairs run concurrently. This is what the paper's prototype
//    does via the Choi et al. GMW implementation with OT extensions.
//
//  * DealerTripleSource — a simulated offline phase: all parties derive
//    their shares deterministically from a shared dealer seed. This mode
//    provides NO privacy (any party can recompute the dealer tape) and
//    exists so that large benchmark sweeps can exercise the online phase at
//    scale; see docs/offline-phase.md.
#ifndef SRC_MPC_TRIPLES_H_
#define SRC_MPC_TRIPLES_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/bits.h"
#include "src/crypto/chacha20.h"
#include "src/net/transport.h"
#include "src/ot/iknp.h"

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
  // Collective: every party in the group must call Generate with the same
  // count, in the same protocol position. Counts may vary call to call
  // (the batched evaluation path draws one bulk range per EvalBatch) as
  // long as all parties' call sequences match.
  virtual BitTriples Generate(size_t count) = 0;
};

// One extension-sender/receiver pair toward a peer, established with one
// base-OT setup in each direction.
struct PeerIknp {
  std::unique_ptr<ot::IknpSender> sender;
  std::unique_ptr<ot::IknpReceiver> receiver;
};

// Copies triples [start, start+count) of `src` into a fresh BitTriples.
// Used to split one bulk Generate across the instances of an EvalBatch.
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

class OtTripleSource : public TripleSource {
 public:
  // `parties` are the transport node ids of the group, `my_index` is this
  // party's position in that list. Base-OT setup with every peer happens
  // lazily on the first Generate call.
  OtTripleSource(net::Transport* net, std::vector<net::NodeId> parties, int my_index,
                 crypto::ChaCha20Prg prg, net::SessionId session = 0);

  BitTriples Generate(size_t count) override;

 private:
  void EnsureSetup();
  // Tournament schedule: returns the peer index this party meets in
  // `round`, or -1 for a bye. Rounds 0 .. RoundCount()-1 enumerate all
  // unordered pairs with disjoint pairs per round.
  int PeerInRound(int round) const;
  int RoundCount() const;

  net::Transport* net_;
  std::vector<net::NodeId> parties_;
  int my_index_;
  crypto::ChaCha20Prg prg_;
  net::SessionId session_;
  bool setup_done_ = false;
  std::map<int, std::unique_ptr<PeerIknp>> sessions_;  // keyed by peer index
};

}  // namespace dstress::mpc

#endif  // SRC_MPC_TRIPLES_H_
