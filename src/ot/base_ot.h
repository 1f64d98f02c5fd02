// Base oblivious transfer (Chou–Orlandi "simplest OT"), honest-but-curious
// variant, over the from-scratch secp256k1 group.
//
// The sender publishes A = a*G; for the i-th transfer the receiver replies
// with B_i = b_i*G (choice 0) or A + b_i*G (choice 1). The sender derives
//   k_i^0 = H(i, a*B_i)        k_i^1 = H(i, a*(B_i - A))
// and the receiver derives k_i^{c_i} = H(i, b_i*A), where H is SHA-256 over
// the index and the point's 33-byte compressed encoding. These 128-bit keys
// seed the IKNP OT extension (iknp.h); DStress's HbC threat model (paper
// §3.2) matches the HbC security of this construction.
//
// The protocol has three steps, one entry point each: the sender announces
// (BaseOtAnnounce), the receiver replies (BaseOtRecv), and the sender
// finishes (BaseOtFinish). Each step reads only the message of the step
// before it, so one thread can play both ends by calling them in order.
//
// Each half runs its `count` transfers as one batch (docs/offline-phase.md,
// "Cost of base-OT setup"):
//  * The sender computes a*A once, right after announcing, and decodes the
//    reply with one DecompressBatch. Every a*B_i comes out of one
//    crypto::MulVariableBases, which walks a's single recoding across all
//    count lanes in lockstep, one shared inversion per step. One batch
//    addition of -a*A then gives every second point a*B_i - a*A, which
//    equals a*(B_i - A). All 2*count points are affine and encode with no
//    inversion.
//  * The receiver serializes its reply with one inversion and sends it
//    before any key work. It then evaluates every b_i*A in one lockstep
//    crypto::MulBatch against a crypto::FixedBaseTable for A, whose affine
//    results encode with no inversion.
// The messages, the PRG draws and the keys equal those of the per-transfer
// formulas above; ot_test pins them with a golden transcript digest.
#ifndef SRC_OT_BASE_OT_H_
#define SRC_OT_BASE_OT_H_

#include <array>
#include <vector>

#include "src/crypto/chacha20.h"
#include "src/crypto/ec.h"
#include "src/net/transport.h"

namespace dstress::ot {

using OtKey = std::array<uint8_t, 16>;

struct BaseOtSenderOutput {
  std::vector<OtKey> keys0;
  std::vector<OtKey> keys1;
};

struct BaseOtReceiverOutput {
  std::vector<OtKey> keys;  // keys[i] == (choices[i] ? keys1[i] : keys0[i])
};

// What the sender keeps between its two steps: its secret a and -a*A.
struct BaseOtAnnouncement {
  crypto::U256 a;
  crypto::AffinePoint neg_a_big_a;
};

// Sender, step 1: draws a from `prg`, sends A = a*G to `peer` and computes
// -a*A. Never blocks.
BaseOtAnnouncement BaseOtAnnounce(net::Transport* net, net::NodeId self, net::NodeId peer,
                                  crypto::ChaCha20Prg& prg, net::SessionId session = 0);

// Receiver: receives A, draws one secret b_i per choice, sends the reply of
// choices.size() points and derives its keys. Blocks until A arrives.
BaseOtReceiverOutput BaseOtRecv(net::Transport* net, net::NodeId self, net::NodeId peer,
                                const std::vector<bool>& choices, crypto::ChaCha20Prg& prg,
                                net::SessionId session = 0);

// Sender, step 2: receives the reply of `count` points and derives both
// keys of every transfer. Blocks until the reply arrives.
BaseOtSenderOutput BaseOtFinish(net::Transport* net, net::NodeId self, net::NodeId peer,
                                const BaseOtAnnouncement& announced, int count,
                                net::SessionId session = 0);

// Process-wide count of base-OT protocol executions (one per BaseOtAnnounce
// or BaseOtRecv call, i.e. one per batch of `count` transfers — the unit the
// EC setup cost is paid in: one variable-base multiplication plus a
// count-lane MulVariableBases on the sender, one table build plus a
// count-lane MulBatch on the receiver). Base OTs are most of a fresh OT
// engine's first run, so tests and bench_fig6 assert on deltas of this
// counter to pin the triple factory's O(roles x peers) -> O(node pairs)
// setup dedup. Both endpoints of an in-process (sim transport) pairing
// increment it, so one IKNP sender/receiver setup between two nodes
// counts 2.
uint64_t BaseOtExecutionCount();

}  // namespace dstress::ot

#endif  // SRC_OT_BASE_OT_H_
