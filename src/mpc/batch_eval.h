// Lockstep batched GMW evaluation — the secure half of the packed-share
// data plane (docs/packed-eval.md).
//
// One node usually plays roles in many concurrent GMW instances: it is a
// member of several vertex blocks in a computation step, of several leaf or
// combine blocks in an aggregation tree. The seed runtime ran each
// (instance, member) role as its own pool task with its own GmwParty, so a
// node paid the per-layer synchronization cost (enqueue wakeups, blocking
// receives, context switches) once per instance per AND layer. Because all
// of a step's instances evaluate circuits with aligned layer structure,
// those roles can instead advance through the AND layers in lockstep: one
// task per node evaluates all of its instances together, bitsliced
// instance-minor (PackedShareMatrix) so XOR/NOT/CONST gates cost one word
// op per 64 instances, and ships each layer's d/e openings for all
// instances sharing a peer as one run on that channel (net::Transport's
// SendRun/RecvRun: one buffer plus message boundaries). The channel
// handles are resolved once per call (OpenChannel), and the run buffer and
// boundary lists are reused across rounds.
//
// Wire compatibility is a hard invariant: the batched path sends exactly
// the same per-instance payloads as the unbatched path — one
// [d-words | e-words] block per instance per nonempty AND layer per peer,
// byte-identical to GmwParty::Eval's message — as individual messages of
// the run: the transport meters, observes and delivers each on its own,
// and the receiver checks every message's size. Per-node TrafficStats
// (bytes *and* message counts) are therefore bit-identical to the
// unbatched schedule; only the session ids and the synchronization cost
// differ. Communication rounds stay equal to the circuit's AND depth.
//
// Deadlock freedom: all participating nodes run their batch call
// concurrently (the runtime admits the whole phase as one worker-pool
// group) and every round's sends are issued before any of its blocking
// receives — a standard bulk-synchronous superstep. Across nodes, the
// per-peer message order is fixed by each instance's `order_key`, on which
// all parties of an instance agree.
//
// Because each instance names its own executing node (parties[my_index]),
// one call may also cover the roles of *many* nodes — the runtime's
// single-scheduler mode: with a non-interactive triple source the whole
// phase runs as one call on one thread, every Recv is satisfied by a Send
// earlier in the same round, no thread ever parks, and the bitslicing
// width grows to every role of the phase. Wire traffic is unchanged — the
// same messages cross the same (from, to) channels either way.
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

}  // namespace dstress::mpc

#endif  // SRC_MPC_BATCH_EVAL_H_
