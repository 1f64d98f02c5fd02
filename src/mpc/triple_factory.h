// Node-pair OT triple factory: the batched offline phase, and the only
// OT-triple generator in the tree.
//
// Giving every (role-group, member) instance its own IKNP sessions would
// make each role pay a 128-base-OT setup per peer and issue tiny
// per-batch extends. On one executing node those roles overwhelmingly face
// the same peer nodes — the factory exploits that:
//
//  * ONE IknpSender/IknpReceiver pair per direction per unordered node
//    pair per run (established the first time two nodes co-occur in a
//    wave, kept for the whole run), so base OTs are paid O(node pairs)
//    instead of O(roles x peers).
//  * Per wave, each co-occurring node pair runs ONE bulk Extend per
//    direction sized to the aggregate demand of every role group the two
//    nodes share, with cross-term corrections for all groups batched into
//    one message per direction.
//  * A partitioner deals each group's shares out to per-(group, member)
//    TripleSource views — blocking cursors over a buffered stream with
//    SliceTriples semantics — which EvalBatchInstances' callers draw from
//    like any other TripleSource, so the online phase does not know which
//    source it runs on.
//
// A wave is three passes on the factory's own WorkerPool: one task per
// participant draws its local shares, one task per co-hosting node pair
// plays both ends of that pair's exchange (so no task waits on another,
// the pool's one rule), and one task per participant deals its shares out.
//
// Pipelining: Enqueue hands waves to a background dispatcher thread and
// returns; the runtime enqueues iteration i+1's demand while iteration i
// evaluates online. The queue is bounded (kMaxPendingWaves) — Enqueue
// blocks when the factory is that far ahead, which is the backpressure.
//
// Fidelity contract: every share is derived from per-(group, member) PRG
// streams advanced once per wave plus OT extensions whose order on each
// channel is fixed by the pair task's schedule and the tag-sorted segment
// layout. Generation is therefore deterministic in (seed, wave sequence)
// no matter how generation and consumption interleave or how the pool
// schedules the pair tasks: figures, per-node TrafficStats and every
// channel's messages are fixed. All factory traffic rides session
// kOfflineSessionNamespace, which is how tests split offline from online
// traffic.
#ifndef SRC_MPC_TRIPLE_FACTORY_H_
#define SRC_MPC_TRIPLE_FACTORY_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/worker_pool.h"
#include "src/crypto/chacha20.h"
#include "src/mpc/triples.h"
#include "src/net/transport.h"
#include "src/ot/iknp.h"

namespace dstress::mpc {

// Session-id namespace (src/core/runtime.cc owns 1..7) for ALL OT-triple
// traffic. Observers classify a message as offline iff
// (session >> 60) == 8.
inline constexpr net::SessionId kOfflineSessionNamespace = 8ULL << 60;

// One role group's share of a wave: `parties[i]` hosts member i and will
// draw `count` triples from ViewFor(tag, i). Tags must be unique within a
// wave (they name the per-group PRG streams and the segment sort order);
// the runtime reuses its role tags, which satisfy this per phase.
struct TripleDemand {
  uint64_t tag = 0;
  std::vector<net::NodeId> parties;
  size_t count = 0;
};

struct TripleFactoryStats {
  double offline_seconds = 0;       // wall time spent generating waves
  double online_wait_seconds = 0;   // consumer time blocked on the pool
  uint64_t waves = 0;
  uint64_t triples = 0;             // per-member triples summed over demands
  uint64_t pair_sessions = 0;       // distinct node pairs with IKNP state
};

class TripleFactory {
 public:
  // Every share and base-OT draw comes from streams keyed by `prg_seed`.
  TripleFactory(net::Transport* net, uint64_t prg_seed);
  ~TripleFactory();

  TripleFactory(const TripleFactory&) = delete;
  TripleFactory& operator=(const TripleFactory&) = delete;

  // Registers one offline wave. Every (tag, member) gains `count` promised
  // triples; views fail fast (DSTRESS_CHECK) if consumption ever outruns
  // what was promised, instead of deadlocking on triples that will never
  // arrive. Blocks when kMaxPendingWaves are already queued.
  void Enqueue(std::vector<TripleDemand> demands);

  // Blocking cursor view over member `member`'s stream of `tag`. Stable for
  // the factory's lifetime; Generate blocks until the wave that promised
  // the range has been dealt out. Views are local (no traffic), so
  // consumers need no inter-node call-order coordination beyond their own
  // stream order.
  TripleSource* ViewFor(uint64_t tag, int member);

  TripleFactoryStats stats() const;

 private:
  // Per-(tag, member) buffered stream: promised/generated/consumed are
  // cumulative bit counts, `pending` holds [consumed, generated) with its
  // front `cursor` bits already drawn.
  struct Buffer {
    std::mutex mu;
    std::condition_variable cv;
    BitTriples pending;
    size_t cursor = 0;
    uint64_t promised = 0;
    uint64_t generated = 0;
    uint64_t consumed = 0;
    uint64_t waves_drawn = 0;  // PRG stream counter; generation side only
  };

  class View;

  // Both ends of one node pair's IKNP sessions: lo's sender with hi's
  // receiver, and hi's sender with lo's receiver (lo < hi).
  struct PairIknp {
    ot::IknpSender lo_sender;
    ot::IknpReceiver hi_receiver;
    ot::IknpSender hi_sender;
    ot::IknpReceiver lo_receiver;
  };

  Buffer* BufferFor(uint64_t tag, int member);
  // Runs the pair's two base-OT setups on the calling thread.
  std::unique_ptr<PairIknp> EstablishPair(net::NodeId lo, net::NodeId hi);
  void GenerateWave(const std::vector<TripleDemand>& demands);
  void DispatcherLoop();
  void AddWaitSeconds(double seconds);

  net::Transport* net_;
  const uint64_t prg_seed_;
  core::WorkerPool pool_;

  std::mutex buffers_mu_;
  std::map<std::pair<uint64_t, int>, std::unique_ptr<Buffer>> buffers_;
  std::map<std::pair<uint64_t, int>, std::unique_ptr<View>> views_;

  // Established IKNP state per node pair (lo, hi). Only the dispatcher
  // thread inserts, between passes; within a pass, a pair's entry is only
  // touched by that pair's task.
  std::map<std::pair<net::NodeId, net::NodeId>, std::unique_ptr<PairIknp>> pairs_;

  // Dispatcher state; the thread is declared last, after what it uses.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::vector<TripleDemand>> pending_waves_;
  bool shutdown_ = false;

  mutable std::mutex stats_mu_;
  TripleFactoryStats stats_;

  std::thread dispatcher_;
};

}  // namespace dstress::mpc

#endif  // SRC_MPC_TRIPLE_FACTORY_H_
