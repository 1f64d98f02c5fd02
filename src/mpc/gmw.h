// GMW protocol engine (Goldreich–Micali–Wigderson 1987) for boolean
// circuits, generalized to k+1 parties with XOR sharing.
//
// This is the workhorse behind every DStress computation step: the members
// of a block each hold XOR shares of the circuit inputs (vertex state +
// incoming messages) and jointly evaluate the update function so that both
// inputs and outputs stay shared and no individual member learns anything
// (paper §3.3, §3.6).
//
// Evaluation strategy:
//  * XOR and NOT gates are local (free).
//  * AND gates consume a Beaver triple and require opening d = x^a,
//    e = y^b. All AND gates of the same multiplicative depth are batched
//    into one bit-packed all-to-all exchange, so the number of
//    communication rounds equals the circuit's AND depth, not its gate
//    count. This mirrors the layer batching that makes the paper's
//    measured MPC costs linear in block size per node.
//  * Independent instances of the same circuit batch further: EvalBatch
//    evaluates W instances together over a bitsliced PackedShareMatrix
//    (packed.h), turning the free gates into word ops (64 instances per
//    uint64 lane), drawing all W * num_and triples in one bulk
//    TripleSource::Generate, and coalescing each AND layer's W opening
//    messages per peer into one run (Transport::SendRun). Rounds stay
//    equal to the AND depth, and each instance's messages stay
//    byte-identical to a solo Eval — see batch_eval.h. Eval is the W=1
//    case.
//
// Collusion resistance: with k+1 parties, any k colluding members see only
// uniformly random shares (GMW's guarantee), matching assumption 3 of the
// threat model.
#ifndef SRC_MPC_GMW_H_
#define SRC_MPC_GMW_H_

#include <vector>

#include "src/circuit/circuit.h"
#include "src/circuit/eval_plan.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/packed.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport.h"

namespace dstress::mpc {

class GmwParty {
 public:
  // `parties` lists the transport node ids of the block members in a fixed
  // order all members agree on; `my_index` is this party's position.
  GmwParty(net::Transport* net, std::vector<net::NodeId> parties, int my_index,
           TripleSource* triples, net::SessionId session = 0);

  // Evaluates `circuit` on XOR-shared inputs. `input_shares` is this
  // party's share of every input bit (in circuit input order). Returns this
  // party's share of every output bit. Collective: all parties must call
  // Eval with the same circuit, concurrently. This overload compiles an
  // EvalPlan per call; hot paths should precompile the plan once and use
  // the overloads below.
  BitVector Eval(const circuit::Circuit& circuit, const BitVector& input_shares);
  BitVector Eval(const circuit::EvalPlan& plan, const BitVector& input_shares);

  // Evaluates the plan's circuit for all W = input_shares.instances()
  // independent instances together (bitsliced; see file comment). Returns
  // this party's output shares, one column per instance. Collective: all
  // parties must call EvalBatch with the same plan and instance count,
  // concurrently; triples are drawn as one Generate(W * num_and) every
  // party performs in the same position. `stats` may be nullptr.
  PackedShareMatrix EvalBatch(const circuit::EvalPlan& plan,
                              const PackedShareMatrix& input_shares,
                              BatchStats* stats = nullptr);

  // Opens shared bits to all parties (used for final outputs that are
  // public by design). Collective.
  BitVector Open(const BitVector& my_shares);

  int my_index() const { return my_index_; }
  int num_parties() const { return static_cast<int>(parties_.size()); }
  bool is_leader() const { return my_index_ == 0; }

 private:
  // All-to-all exchange of a packed word block; returns the XOR of all
  // parties' blocks (i.e., the opened values). The block goes to every
  // other party before the first blocking receive.
  std::vector<uint64_t> ExchangeXor(const std::vector<uint64_t>& mine);

  net::Transport* net_;
  std::vector<net::NodeId> parties_;
  int my_index_;
  net::SessionId session_;
  TripleSource* triples_;
};

}  // namespace dstress::mpc

#endif  // SRC_MPC_GMW_H_
