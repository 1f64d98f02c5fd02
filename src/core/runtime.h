// The DStress execution engine (paper §3.3 / §3.6).
//
// The engine is the middle of a three-layer architecture:
//
//   transport (src/net)   — net::Transport carries serialized protocol
//                           messages over FIFO (from, to, session) channels
//                           and meters every byte; backends are selected by
//                           name via net::TransportSpec ("sim" in-process,
//                           "tcp" one process per bank — see
//                           RuntimeConfig::transport).
//   protocol  (src/mpc, src/ot, src/transfer)
//                         — GMW circuit evaluation, OT-extension triples,
//                           and the §3.5 share-transfer scheme, all written
//                           against net::Transport* so backends swap freely.
//   scheduler (this file + worker_pool.h)
//                         — decides which protocol roles run when, on a
//                           persistent core::WorkerPool.
//
// The runtime runs a vertex program over a distributed set of nodes, one
// per vertex, where every protocol role executes as a pool task and
// communicates exclusively through transport messages:
//
//  * Initialization — each node XOR-splits its vertex's initial state into
//    k+1 shares and distributes them to its block; message slots start as
//    shares of the no-op message ⊥ (all zeros).
//  * Computation step — every block evaluates the update circuit in GMW;
//    inputs and outputs stay shared, no member ever sees a value.
//  * Communication step — every directed edge runs the §3.5 transfer
//    protocol, moving each message's sharing from the sender's block to the
//    receiver's block through the two edge endpoints.
//  * Aggregation + noising — blocks forward their state shares
//    (member-index aligned) to the aggregation block, which evaluates the
//    contribution-sum circuit plus the in-MPC discrete-Laplace sampler and
//    opens only the noised total. With aggregation_fanout > 0 an
//    aggregation tree is used (§3.6's scalable variant): leaf blocks sum
//    groups of `fanout` states, intermediate blocks combine up to `fanout`
//    partials per level (all sums stay shared), and only the root adds
//    noise and opens.
//
// Scheduling: a computation step and each stage of the aggregation (leaf,
// combine levels and root alike) is one lockstep batched evaluation of all
// its roles on the scheduler thread (docs/packed-eval.md). Transfers run as
// (group, subtask) tasks on the worker pool, where a group is one edge
// transfer. The pool admits whole groups only while every subtask of the
// admitted set can hold a thread concurrently; sends never block, so every
// admitted protocol instance eventually progresses — see worker_pool.h for
// the full invariant. The pool's threads persist across phases and runs, so
// a run pays thread creation once.
#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/setup.h"
#include "src/core/vertex_program.h"
#include "src/core/worker_pool.h"
#include "src/graph/graph.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/triple_factory.h"
#include "src/net/transport.h"
#include "src/net/transport_spec.h"
#include "src/transfer/transfer.h"

namespace dstress::transfer {
class EvenNoiseCache;  // batch_engine.h; held by unique_ptr only
}

namespace dstress::core {

struct RuntimeConfig {
  int block_size = 8;  // k+1
  // Transfer-protocol noise and lookup parameters (production-scale alpha
  // needs the paper's 8 GB lookup table; defaults are test-scale).
  double transfer_budget_alpha = 0.9;
  // Half-range of the ElGamal discrete-log table. 0 = size automatically so
  // the Appendix B lookup-failure probability is negligible per run.
  int64_t dlog_range = 0;
  // false: dealer triples (simulated offline phase, fast). true: IKNP
  // OT-extension triples (the real protocol) through the node-pair triple
  // factory (src/mpc/triple_factory.h) — one IKNP session pair per node
  // pair, bulk extends sized to each phase's aggregate demand.
  bool use_ot_triples = false;
  // 0 = single aggregation block; >0 = aggregation tree with this group
  // size per level (depth grows as log_fanout(N)). Either shape serves solo
  // runs and ensembles of any width alike.
  int aggregation_fanout = 0;
  // Thread budget of the worker pool (0 = auto, core::ResolveThreadBudget).
  int max_parallel_tasks = 0;
  // Which wire carries the run (resolved via net::MakeTransport; "sim" or
  // "tcp" built in). The runtime never names a concrete transport type.
  // Its TransportOptions hold the per-channel queued-byte cap; the batched
  // MPC plane coalesces a round's openings for every instance two nodes
  // share onto one channel, so size the cap for that sum, not for a single
  // vertex's burst.
  net::TransportSpec transport;
  // Largest scenario count Runtime::RunEnsemble will be called with (1 =
  // solo runs only). Only scales the auto-sized dlog-table failure budget:
  // an ensemble multiplies the transfer draws per run by its width.
  int ensemble_width = 1;
  uint64_t seed = 1;
  // --- HA checkpointing (src/ha/checkpoint.h, docs/ha.md) -----------------
  // >0: a run snapshots its phase state — the share arrays of every lane —
  // to checkpoint_path after every `checkpoint_every`-th communication step
  // (an iteration barrier). Covers every lane count, solo runs included.
  // Requires use_ot_triples == false (OT sessions hold unrewindable
  // cross-process state).
  int checkpoint_every = 0;
  std::string checkpoint_path;
  // Resume a run from checkpoint_path instead of starting at iteration 0:
  // restores the share arrays and dealer-triple tape positions and skips
  // the init phase. The released figures are bit-identical to an
  // uninterrupted run. The config fingerprint guards against resuming a
  // different run shape, and the restore checks that the snapshot holds
  // one entry per (lane, vertex).
  bool resume = false;
};

// Derives the PRG seed for a protocol role from the run seed. Shared with
// the engine's cleartext backend, which must draw the aggregation-noise
// bits (role tag kNoiseRoleTag) from the same stream family the secure
// runtime uses — keep any change to this mixing in sync with nothing else:
// this function is the single definition.
constexpr uint64_t kNoiseRoleTag = 0x44;
uint64_t RolePrgSeed(uint64_t run_seed, uint64_t role_tag);

// One stage of the §3.6 aggregation: `inputs` values summed in groups of
// `width` (the last group may be short); the stage's groups are the next
// stage's inputs.
struct AggregationStage {
  int inputs = 0;
  int width = 0;
  int groups() const { return (inputs + width - 1) / width; }
  int GroupSize(int g) const { return std::min(inputs, g * width + width) - g * width; }
};

// The aggregation's shape over n vertex states, shared with the engine's
// cleartext backend so both planes gather along the same tree. The last
// stage is the root, a single group. fanout 0 is the flat aggregation, the
// root alone; fanout >= 2 puts leaf groups of `fanout` states and combine
// levels, until at most `fanout` partials remain, before the root.
std::vector<AggregationStage> AggregationShape(int num_vertices, int fanout);

struct PhaseMetrics {
  double seconds = 0;
  uint64_t bytes = 0;
};

struct RunMetrics {
  PhaseMetrics init;
  PhaseMetrics compute;      // summed over all computation steps
  PhaseMetrics communicate;  // summed over all communication steps
  PhaseMetrics aggregate;
  double total_seconds = 0;
  uint64_t total_bytes = 0;
  double avg_bytes_per_node = 0;
  size_t update_and_gates = 0;
  // Every aggregation stage's groups (leaf, combine and root), x lanes.
  size_t aggregate_and_gates = 0;
  // Circuit-stats surface (run_spec.h FormatReport): the update circuit's
  // AND depth is the number of GMW communication rounds one computation
  // step must take; update_rounds is the exchange-round count the MPC layer
  // actually reported for a step (engine_test asserts they are equal), and
  // triples_consumed totals the Beaver triples drawn across all parties and
  // phases of the run. Cleartext runs report the depth but no rounds or
  // triples (there is no MPC).
  size_t update_and_depth = 0;
  size_t update_rounds = 0;
  uint64_t triples_consumed = 0;
  int iterations = 0;
  // HA surface (docs/ha.md), all zero when the HA layer is off: transport
  // fault-tolerance traffic (heartbeats, resume handshakes, replays —
  // excluded from the byte totals above), completed session resumes, wall
  // time spent writing checkpoints, and the iteration a resumed run
  // restarted from (-1 = not resumed). ToString appends them only when HA
  // was active, so non-HA reports are unchanged.
  uint64_t ha_control_bytes = 0;
  int ha_resumes = 0;
  double ha_checkpoint_seconds = 0;
  int resumed_from_iteration = -1;
  // Offline-phase surface (docs/offline-phase.md), all zero for dealer
  // runs: wall time the triple factory spent generating waves (overlaps
  // the phase timings above — the factory runs while the online phase
  // evaluates), online time spent blocked on the triple pool,
  // and base-OT protocol executions during the run (both endpoints count,
  // so one node-pair setup contributes 4). ToString appends them only for
  // OT runs, so dealer reports are unchanged.
  double offline_seconds = 0;
  double offline_wait_seconds = 0;
  uint64_t base_ot_executions = 0;

  std::string ToString() const;
};

class Runtime {
 public:
  Runtime(const RuntimeConfig& config, const graph::Graph& graph, const VertexProgram& program);
  ~Runtime();

  // Executes the program on the given initial states (one state_bits-wide
  // bit vector per vertex, held by that vertex's node). Returns the noised
  // aggregate as a signed integer. Reusable: each call is an independent
  // run (state is re-initialized), but OT/triple sessions persist.
  int64_t Run(const std::vector<mpc::BitVector>& initial_states, RunMetrics* metrics);

  // Scenario-ensemble run: S independent programs (initial_states[s][v] =
  // scenario s's state for vertex v) advance in one lockstep pass — every
  // batched phase carries all S scenarios as extra lanes of the same
  // EvalBatchInstances / per-edge transfer batches — and S noised
  // aggregates are opened. Scenario s's figure is identical to
  // Run(initial_states[s]): per-scenario PRG roles (init shares, transfer
  // masks, aggregation noise) reproduce the solo streams, and Run is the
  // S == 1 case (bit-identical traffic included). Every instance sends its
  // solo messages, so in dealer mode each node's TrafficStats are the sum
  // of its S solo runs', under flat and tree aggregation alike.
  std::vector<int64_t> RunEnsemble(const std::vector<std::vector<mpc::BitVector>>& initial_states,
                                   RunMetrics* metrics);

  const net::Transport& network() const { return *net_; }
  // Attaches a NetworkObserver (e.g. an audit::TranscriptRecorder; nullptr
  // detaches); see src/audit. Must happen before the first Run: the
  // transport aborts on an attach after worker threads have started
  // exchanging traffic.
  void AttachObserver(net::NetworkObserver* observer) { net_->SetObserver(observer); }
  const circuit::Circuit& update_circuit() const { return update_circuit_; }
  const TrustedSetup& setup() const { return setup_; }

 private:
  // The phases of one run over S scenario lanes (S = 1 for Run): share
  // arrays are sized S*n and role (s, v) lives at flat index s*n + v, so
  // the Assemble/Scatter helpers work unchanged on flat indices. Lane 0's
  // PRG instances, session ids and order keys are exactly the solo run's.
  void InitPhase(const std::vector<std::vector<mpc::BitVector>>& initial_states);
  // One lockstep batched evaluation of every (vertex, member) role of every
  // lane over bitsliced packed shares; see docs/packed-eval.md.
  void ComputePhase(int num_scenarios);
  // Four barrier-separated sub-phases of per-edge batched transfer crypto
  // for lane `scenario`; see docs/transfer-crypto.md.
  void CommunicatePhase(int scenario);
  // The §3.6 aggregation of every lane along agg_stages_: each stage is one
  // lockstep batched evaluation over lanes x groups x members, and each
  // lane's noised total is then opened on the aggregation block. Returns
  // the S released figures.
  std::vector<int64_t> Aggregate(int num_scenarios);

  // This party's share of one update-circuit input vector (state + incoming
  // message slots) and the inverse scatter of an output vector.
  mpc::BitVector AssembleUpdateInput(int v, int m) const;
  void ScatterUpdateOutput(int v, int m, const mpc::BitVector& output);

  // A batched MPC phase over `roles` = (group, member) pairs: one lockstep
  // EvalBatchInstances call on the calling thread, exchanging on `session`.
  // Dealer tapes and factory views need no communication at draw time, so
  // nothing ever parks: each round's receives are satisfied by sends
  // earlier in the same round. make_item(g, m) builds the instance (triples
  // drawn inside, in role order), sink(i, output) stores role i's output
  // shares. Returns the exchange rounds the phase took.
  size_t RunBatchedPhase(net::SessionId session, const std::vector<std::pair<int, int>>& roles,
                         const std::function<mpc::BatchInstance(int, int)>& make_item,
                         const std::function<void(size_t, const mpc::BitVector&)>& sink);

  // The triple source of role (tag, member): a factory view with OT
  // triples, a persistent dealer tape otherwise.
  mpc::TripleSource* TripleSourceFor(uint64_t tag, int member_index);
  crypto::ChaCha20Prg RolePrg(uint64_t role_tag, uint64_t instance);

  // Offline-phase demand estimation (config_.use_ot_triples): registers one
  // factory wave covering every triple the named phase will draw —
  // update-circuit AND count x scenarios per vertex block for a
  // computation step; for the aggregation step, each group's AND count x
  // scenarios, read from agg_stages_. No-ops when the factory is off.
  void EnqueueComputeWave(int num_scenarios);
  void EnqueueAggregateWave(int num_scenarios);

  // HA checkpointing (config_.checkpoint_every / config_.resume). The
  // fingerprint covers every parameter that shapes the share arrays and
  // triple tapes, so a checkpoint can never be replayed into a different
  // run. SaveCheckpoint snapshots after the iteration barrier;
  // RestoreCheckpoint returns the iteration to resume at (aborts when the
  // file is unreadable, from another run, or from a run with another lane
  // count).
  uint64_t ConfigFingerprint() const;
  void SaveCheckpoint(int next_iteration, RunMetrics* m);
  int RestoreCheckpoint(int num_scenarios);

  // One stage of the aggregation plan, group g evaluated on blocks[g]. The
  // first stage's inputs are the vertex states; a later stage's are the
  // previous stage's shared partials, input i held by that stage's
  // blocks[i]. The root's single group runs on the aggregation block and
  // also adds the output noise.
  struct AggStage {
    AggregationStage shape;
    std::vector<std::vector<int>> blocks;
    // Input i of lane s arrives on input_session | (s << 40) | i.
    net::SessionId input_session = 0;
    // Group g draws its triples under tag_base + g.
    uint64_t tag_base = 0;
    // One plan per distinct group size.
    std::map<int, circuit::EvalPlan> plans;

    const circuit::EvalPlan& PlanFor(int g) const { return plans.at(shape.GroupSize(g)); }
  };

  RuntimeConfig config_;
  const graph::Graph& graph_;
  VertexProgram program_;
  circuit::Circuit update_circuit_;
  // Precompiled layer structure of the update circuit, shared by every
  // round, instance and run (circuit/eval_plan.h).
  circuit::EvalPlan update_plan_;
  transfer::TransferParams transfer_params_;
  TrustedSetup setup_;
  // The aggregation plan, built once per runtime and shared by every run,
  // lane and offline wave; the root draws its noise from role
  // agg_noise_tag_ (kNoiseRoleTag flat, 0x66 under a tree).
  std::vector<AggStage> agg_stages_;
  uint64_t agg_noise_tag_ = kNoiseRoleTag;
  // AND gates one lane's aggregation evaluates, over every stage's groups.
  size_t agg_and_gates_ = 0;
  std::unique_ptr<net::Transport> net_;
  std::unique_ptr<crypto::DlogTable> dlog_table_;
  // Noise points for the batched aggregation step, sized to the dlog table
  // range; built on the first batched communication step.
  std::unique_ptr<transfer::EvenNoiseCache> noise_cache_;
  std::unique_ptr<WorkerPool> pool_;

  // Shares indexed [vertex][member]: the runtime stores them centrally, but
  // entry [v][m] is only ever touched by the thread playing member m of
  // B_v — the access pattern respects the trust boundaries.
  std::vector<std::vector<mpc::BitVector>> state_shares_;
  // [vertex][in_slot][member]
  std::vector<std::vector<std::vector<mpc::BitVector>>> inmsg_shares_;
  // [vertex][out_slot][member]
  std::vector<std::vector<std::vector<mpc::BitVector>>> outmsg_shares_;

  // Dealer triple tapes keyed by (vertex or agg tag, member index).
  std::map<std::pair<uint64_t, int>, std::unique_ptr<mpc::DealerTripleSource>> triple_sources_;
  std::mutex triple_mu_;
  // Offline phase (use_ot_triples): the node-pair triple factory.
  std::unique_ptr<mpc::TripleFactory> triple_factory_;

  // Graph::Edges(), with each edge's slot in its source's out-list and in
  // its destination's in-list.
  std::vector<std::pair<int, int>> edges_;
  std::vector<int> edge_out_slot_;
  std::vector<int> edge_in_slot_;

  // Per-run circuit-stat accumulators (RunMetrics surface).
  std::atomic<uint64_t> triples_consumed_{0};
  size_t compute_rounds_ = 0;  // scheduler thread only
};

}  // namespace dstress::core

#endif  // SRC_CORE_RUNTIME_H_
