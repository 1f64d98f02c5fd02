// Flat-arena cleartext graph plane (docs/graph-plane.md).
//
// The first cleartext backend kept per-vertex std::vector<uint8_t> state
// and message containers — three heap objects per vertex plus two per edge
// slot — which capped scenario sweeps around N=10k (ROADMAP item 3). This
// module is the FlashGraph-shaped replacement: the whole iteration state
// lives in two flat bitsliced arenas indexed by vertex lane, an
// active-vertex frontier skips words whose inputs cannot have changed, and
// message movement is a masked word copy along CSR edge offsets instead of
// a per-edge heap allocation.
//
//  * State arena: one mpc::PackedShareMatrix holding the update circuit's
//    input rows — [state_bits rows][degree_bound * message_bits in-slot
//    rows] — over n * stride lanes (scenario s of vertex v at lane
//    v*stride + s, exactly the ensemble lane plane's layout; a solo run is
//    the degenerate S = stride = 1 case).
//  * Message arena: the out-message rows of the last evaluation, double-
//    buffered against the state arena's in-slots so an iteration reads last
//    round's messages while writing this round's.
//  * Frontier: one byte per 64-lane word. A word is evaluated only when its
//    state changed at its last evaluation or a changed message was
//    delivered to it; the update circuit is deterministic, so skipping a
//    word with unchanged inputs reproduces its outputs by definition.
//  * Fidelity: the frontier changes which words are *evaluated*, never what
//    is *sent*. Every directed edge is metered (or literally sent) every
//    iteration, so released figures, per-vertex states, per-node
//    TrafficStats and ensemble per-lane results are bit-identical to the
//    container plane (golden digests in tests/graphplane_test.cc). Bulk
//    metering needs the transport's cooperation
//    (net::Transport::MeterSelfDelivered); when the transport refuses —
//    attached observer, real wire — the plane falls back to one literal
//    Send/Recv per edge with the legacy payload bytes.
//
// The plane is engine-agnostic: it owns no transport, pool or circuits,
// only references, so tests drive it directly. The arena backend
// (src/engine/arena_cleartext_backend.cc) keeps one plane, rebuilt only
// when a chunk's lane count changes, and Resets it before every chunk.
#ifndef SRC_GRAPHPLANE_PLANE_H_
#define SRC_GRAPHPLANE_PLANE_H_

#include <cstdint>
#include <vector>

#include "src/circuit/eval_plan.h"
#include "src/common/bytes.h"
#include "src/core/vertex_program.h"
#include "src/core/worker_pool.h"
#include "src/graph/graph.h"
#include "src/mpc/packed.h"
#include "src/net/transport.h"

namespace dstress::graphplane {

// Ensemble payload bit helpers (payload bit r*S + s is message bit r of
// scenario s; S=1 degenerates to plain LSB-first bit packing). Shared by
// the plane's literal-send fallback and the arena backend's gather phase.
void InsertBits(Bytes* out, size_t bit_offset, uint64_t bits, int count);
uint64_t ExtractBits(const Bytes& raw, size_t bit_offset, int count);

class GraphPlane {
 public:
  struct Options {
    // Scenario lanes per vertex (S) and the lane-group stride (P): P is the
    // smallest power of two >= S, so P divides 64 and a vertex's lane group
    // never straddles a word. Solo runs use S = P = 1.
    int num_scenarios = 1;
    int stride = 1;
    // Session namespace for the literal-send fallback: edge e's message
    // travels on session `edge_session_base | e` (e = global CSR edge
    // index, the graph's Edges() order).
    net::SessionId edge_session_base = 0;
  };

  struct Stats {
    uint64_t iterations = 0;       // CommunicateStep calls
    uint64_t words_evaluated = 0;  // lane words the frontier admitted
    uint64_t words_skipped = 0;    // lane words the frontier skipped
    uint64_t groups_delivered = 0; // dirty per-edge lane groups moved in-arena
    bool bulk_metered = false;     // last CommunicateStep used bulk metering
  };

  // References must outlive the plane. `update_plan` is the program's
  // update circuit plan (inputs = state_bits + degree_bound*message_bits
  // rows, outputs likewise).
  GraphPlane(const graph::Graph& graph, const core::VertexProgram& program,
             const circuit::EvalPlan& update_plan, core::WorkerPool* pool, net::Transport* net,
             Options options);

  size_t lane_words() const { return words_; }
  const std::vector<uint64_t>& valid_masks() const { return valid_mask_; }

  // Zeroes the message arena and the input arena's in-slot rows, re-arms
  // the frontier (everything active) and clears the stats. It leaves the
  // state rows [0, state_bits) as they are: PackStates, which must follow,
  // rewrites every word of them. One Reset + PackStates per run.
  void Reset();

  // Packs the initial states of this plane's S lanes, lanes[first + s][v]
  // being lane s's state for vertex v, into rows [0, state_bits) of the
  // input arena, every word of them. Call right after Reset(): in-slot
  // rows stay at ⊥ (all-zero), matching the container plane's init. Works
  // in blocks of 64 lanes x 64 state rows, one bit transpose per block, for
  // any state width and stride; lanes past S (and past the last vertex)
  // pack as zero. Word ranges are pool tasks, as in ComputeStep, and each
  // reads bit 0 of a state byte, 8 bytes per multiply. Aborts unless every
  // lane holds one state_bits-wide state per vertex.
  void PackStates(const std::vector<std::vector<mpc::BitVector>>& lanes, size_t first);

  // One computation step: evaluates every active word's lanes through the
  // update plan (bitsliced, chunked over the worker pool, thread-local
  // grow-only scratch — no per-iteration allocation once warm), writes new
  // states into the state arena and new out-messages into the message
  // arena, and stages the next frontier from the observed diffs.
  void ComputeStep();

  // One communication step: meters every directed edge's message (bulk
  // TrafficStats delta when the transport accepts, literal Send/Recv per
  // edge otherwise), moves changed messages into the receivers' in-slots,
  // activates receivers of changed messages, and flips the frontier.
  void CommunicateStep();

  // True when the next ComputeStep would evaluate nothing — every lane's
  // state and in-messages are unchanged since its last evaluation, i.e.
  // further iterations are figure-identical no-ops.
  bool AllConverged() const;
  size_t ActiveWords() const;

  // Scenario `scenario` of vertex `vertex` as an unpacked state BitVector
  // (rows [0, state_bits) of the vertex's lane).
  mpc::BitVector VertexState(int vertex, int scenario) const;

  // The `count`-lane group of state row `row` at vertex `vertex`'s lanes.
  uint64_t StateLaneGroup(size_t row, int vertex, int count) const;

  // Evaluates `plan` (inputs = state_bits rows) over every lane of the
  // state arena — the aggregation phase's per-vertex contribution pass.
  mpc::PackedShareMatrix EvalOverStates(const circuit::EvalPlan& plan) const;

  // Reduces a contribution matrix (agg_bits rows over this plane's lanes)
  // to one wrapping uint64 sum per scenario, skipping garbage lanes.
  // Addition order is (vertex-major per scenario), identical to the
  // container plane's reduction.
  std::vector<uint64_t> ScenarioSums(const mpc::PackedShareMatrix& contrib, int agg_bits) const;

  int num_scenarios() const { return num_scenarios_; }
  const Stats& stats() const { return stats_; }

 private:
  void DeliverDirtyGroups();
  void SendAllEdges();

  const graph::Graph& graph_;
  const circuit::EvalPlan& update_plan_;
  core::WorkerPool* pool_;
  net::Transport* net_;

  int n_ = 0;
  int sb_ = 0;             // state_bits
  int mb_ = 0;             // message_bits
  int degree_bound_ = 0;
  int num_scenarios_ = 0;  // S
  int stride_ = 0;         // P
  net::SessionId session_base_ = 0;
  size_t lanes_ = 0;       // n * P
  size_t words_ = 0;       // ceil(lanes / 64)
  uint64_t group_mask_ = 0;  // low S bits

  // CSR over the graph's Edges() order: edge e = out_start_[v] + slot is
  // v's slot-th out-edge, landing in in-slot edge_in_slot_[e] of
  // edge_dst_[e].
  std::vector<size_t> out_start_;
  std::vector<int> out_deg_;
  std::vector<int> edge_dst_;
  std::vector<int> edge_in_slot_;

  // Update-circuit input rows (state + in-slots) over all lanes.
  mpc::PackedShareMatrix in_mat_;
  // Out-message rows of the last evaluation (update output row sb_ + r
  // lives at row r here; new-state output rows are written straight back
  // into in_mat_).
  mpc::PackedShareMatrix out_msg_mat_;

  // Frontier: byte per word, double-buffered across the iteration barrier.
  std::vector<uint8_t> active_;
  std::vector<uint8_t> next_active_;
  std::vector<size_t> active_list_;  // words evaluated by the last ComputeStep

  // msg_dirty_[w * degree_bound + slot]: lanes of word w whose slot
  // out-message changed at the last ComputeStep (pre-masked by
  // valid_mask_).
  std::vector<uint64_t> msg_dirty_;

  // Lanes of each word that carry a real (vertex < n, scenario < S) value;
  // everything else is bitsliced garbage and must not feed diffs or sums.
  std::vector<uint64_t> valid_mask_;

  // Per-iteration all-edges traffic delta for bulk metering, precomputed
  // once: every directed edge's (message_bits*S+7)/8-byte payload, counted
  // at sender and receiver.
  std::vector<net::TrafficStats> edge_delta_;

  Stats stats_;
};

}  // namespace dstress::graphplane

#endif  // SRC_GRAPHPLANE_PLANE_H_
