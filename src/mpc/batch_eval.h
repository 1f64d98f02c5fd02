// Lockstep batched GMW evaluation — the secure half of the packed-share
// data plane (docs/packed-eval.md), and the only GMW engine in the tree.
//
// GMW (Goldreich–Micali–Wigderson 1987) over XOR shares among a block's
// k+1 members (paper §3.3, §3.6): XOR, NOT and CONST gates are local; each
// AND gate consumes a Beaver triple (a, b, c = a AND b) and opens
// d = x^a, e = y^b. All AND gates of one multiplicative depth open
// together, so the communication rounds equal the circuit's AND depth, and
// any k colluding members see only uniformly random shares.
//
// One node usually plays roles in many concurrent GMW instances: it is a
// member of several vertex blocks in a computation step, of several leaf or
// combine blocks in an aggregation tree. Because all of a phase's
// instances evaluate circuits with aligned layer structure, their roles
// advance through the AND layers in lockstep: the instances are bitsliced
// instance-minor (PackedShareMatrix) so XOR/NOT/CONST gates cost one word
// op per 64 instances, and each layer's d/e openings for all instances
// sharing a peer ship as one run on that channel (net::Transport's
// SendRun/RecvRun: one buffer plus message boundaries). The channel
// handles are resolved once per call (OpenChannel), and the run buffer and
// boundary lists are reused across rounds.
//
// Wire format: each instance sends one [d-words | e-words] block
// (little-endian u64, d bits then e bits of the layer's AND gates, each
// zero-padded to whole words) per nonempty AND layer to each peer, as its
// own message of the run: the transport meters, observes and delivers each
// on its own, and the receiver checks every message's size. Per-node
// TrafficStats (bytes *and* message counts) therefore do not depend on how
// instances are batched, on which thread runs them, or on the triple
// values; only the synchronization cost differs.
//
// Deadlock freedom: when an instance's parties run separate batch calls,
// every round's sends are issued before any of its blocking receives — a
// standard bulk-synchronous superstep — so the calls complete if they run
// concurrently, each on a thread of its own (packed_eval_test's
// one-thread-per-party mode). They must not be tasks of one
// core::WorkerPool call, whose one rule is that no task waits on another
// (worker_pool.h). Across nodes, the per-peer message order is fixed by
// each instance's `order_key`, on which all parties of an instance agree.
//
// Because each instance names its own executing node (parties[my_index]),
// one call may also cover the roles of *many* nodes — the only mode
// core::Runtime uses: each computation step and each aggregation stage is
// one call on the scheduler thread. With a non-interactive triple source
// every Recv is satisfied by a Send earlier in the same round, no thread
// ever parks, and the bitslicing width grows to every role of the phase.
// Wire traffic is unchanged — the same messages cross the same (from, to)
// channels either way. EvalBlock below is that mode for the instances of
// one block.
#ifndef SRC_MPC_BATCH_EVAL_H_
#define SRC_MPC_BATCH_EVAL_H_

#include <cstdint>
#include <vector>

#include "src/circuit/eval_plan.h"
#include "src/mpc/packed.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport.h"

namespace dstress::mpc {

// One GMW instance this node participates in.
struct BatchInstance {
  // Evaluation plan of the instance's circuit (precompiled once per
  // circuit; see circuit::EvalPlan). Instances sharing a plan are bitsliced
  // into one PackedShareMatrix internally.
  const circuit::EvalPlan* plan = nullptr;
  // Transport node ids of the instance's parties, in the fixed order all
  // parties agree on; my_index is the executing node's position (the
  // instance runs as node parties[my_index]).
  std::vector<net::NodeId> parties;
  int my_index = 0;
  // This party's triples for the instance, >= plan->stats().num_and of
  // them, consumed in AND-layer round order (prefetched by the caller so
  // collective TripleSource protocols run in a globally consistent order).
  BitTriples triples;
  // This party's XOR share of every circuit input, in input order.
  BitVector input_shares;
  // Deterministic cross-party ordering key (e.g. the vertex id): parties of
  // an instance must all use the same key, and two instances sharing two or
  // more parties must have distinct keys.
  uint64_t order_key = 0;
};

struct BatchStats {
  size_t rounds = 0;            // exchange rounds executed
  size_t triples_consumed = 0;  // summed over instances
};

// Evaluates every instance in lockstep, exchanging openings on `session`.
// Returns each instance's output shares, parallel to `instances`.
// Collective: every party of every instance must run a batch call covering
// that instance with the same session — either concurrently from its own
// thread, or inside this very call (the many-nodes single-scheduler mode
// above). `stats` may be nullptr.
std::vector<BitVector> EvalBatchInstances(net::Transport* net, net::SessionId session,
                                          std::vector<BatchInstance> instances,
                                          BatchStats* stats = nullptr);

// Every (instance, party) role of W = shares.size() instances of `plan`
// shared by one block, in one EvalBatchInstances call on the calling
// thread. shares[j][p] is party p's input share of instance j; returns
// outputs[j][p]. Party p draws plan.stats().num_and triples per instance
// from sources[p], in instance order, so `sources` must not need
// communication at draw time (dealer tapes, factory views). Instance j's
// order_key is j. `stats` counts every role's triples.
std::vector<std::vector<BitVector>> EvalBlock(net::Transport* net, net::SessionId session,
                                              const circuit::EvalPlan& plan,
                                              const std::vector<net::NodeId>& parties,
                                              const std::vector<std::vector<BitVector>>& shares,
                                              const std::vector<TripleSource*>& sources,
                                              BatchStats* stats = nullptr);

}  // namespace dstress::mpc

#endif  // SRC_MPC_BATCH_EVAL_H_
