#include "src/core/runtime.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "src/common/bits.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/ha/checkpoint.h"
#include "src/ot/base_ot.h"
#include "src/transfer/batch_engine.h"

namespace dstress::core {

namespace {

// Session-id namespaces (top 4 bits of a 64-bit id select the phase;
// namespace 2 is unused, and 8 is the offline phase's, see triple_factory.h).
constexpr net::SessionId kInitSession = 1ULL << 60;
constexpr net::SessionId kTransferSession = 3ULL << 60;
constexpr net::SessionId kAggGatherSession = 4ULL << 60;
constexpr net::SessionId kAggEvalSession = 5ULL << 60;
constexpr net::SessionId kAggCombineSession = 6ULL << 60;
// Lockstep batched GMW exchanges share one session per kind of phase:
// kBatchSession for computation steps, kAggEvalSession for every
// aggregation stage and the final opening. Phases and stages are separated
// by scheduler barriers (every message of one is consumed before the next
// sends), so the per-(from, to, session) FIFO order inside a phase is the
// only order that matters — and batch_eval.h fixes it by instance
// order_key.
constexpr net::SessionId kBatchSession = 7ULL << 60;

// Triple-source tags outside the vertex-id space.
constexpr uint64_t kAggTripleTag = 1ULL << 40;

Bytes PackBits(const mpc::BitVector& bits) {
  Bytes out((bits.size() + 7) / 8, 0);
  for (size_t i = 0; i < bits.size(); i++) {
    if (bits[i] & 1) {
      out[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    }
  }
  return out;
}

// The release opening's wire format: PackBits zero-padded to whole 8-byte
// words (bit i at bit i % 64 of little-endian word i / 64).
Bytes PackWords(const mpc::BitVector& bits) {
  Bytes out = PackBits(bits);
  out.resize(PackedWords(bits.size()) * 8, 0);
  return out;
}

mpc::BitVector UnpackBits(const Bytes& raw, size_t bits) {
  DSTRESS_CHECK(raw.size() == (bits + 7) / 8);
  mpc::BitVector out(bits);
  for (size_t i = 0; i < bits; i++) {
    out[i] = (raw[i / 8] >> (i % 8)) & 1;
  }
  return out;
}

}  // namespace

std::string RunMetrics::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "total=%.2fs (init=%.2fs compute=%.2fs comm=%.2fs agg=%.2fs) "
                "traffic: total=%.2fMB avg/node=%.2fMB update_ands=%zu depth=%zu rounds=%zu "
                "agg_ands=%zu triples=%llu iters=%d",
                total_seconds, init.seconds, compute.seconds, communicate.seconds,
                aggregate.seconds, total_bytes / 1e6, avg_bytes_per_node / 1e6, update_and_gates,
                update_and_depth, update_rounds, aggregate_and_gates,
                static_cast<unsigned long long>(triples_consumed), iterations);
  std::string out = buf;
  if (ha_control_bytes > 0 || ha_resumes > 0 || ha_checkpoint_seconds > 0 ||
      resumed_from_iteration >= 0) {
    std::snprintf(buf, sizeof(buf), " ha: ctrl=%.2fMB resumes=%d ckpt=%.2fs resumed_from=%d",
                  ha_control_bytes / 1e6, ha_resumes, ha_checkpoint_seconds,
                  resumed_from_iteration);
    out += buf;
  }
  if (base_ot_executions > 0 || offline_seconds > 0) {
    std::snprintf(buf, sizeof(buf), " offline: gen=%.2fs wait=%.2fs base_ots=%llu",
                  offline_seconds, offline_wait_seconds,
                  static_cast<unsigned long long>(base_ot_executions));
    out += buf;
  }
  return out;
}

uint64_t RolePrgSeed(uint64_t run_seed, uint64_t role_tag) {
  return run_seed * 0x9e3779b97f4a7c15ULL + role_tag;
}

std::vector<AggregationStage> AggregationShape(int num_vertices, int fanout) {
  // fanout 1 would make the tree's reduction never shrink.
  DSTRESS_CHECK(fanout == 0 || fanout >= 2);
  std::vector<AggregationStage> stages;
  int inputs = num_vertices;
  if (fanout > 0) {
    do {
      stages.push_back({inputs, fanout});
      inputs = stages.back().groups();
    } while (inputs > fanout);
  }
  stages.push_back({inputs, inputs});
  return stages;
}

Runtime::Runtime(const RuntimeConfig& config, const graph::Graph& graph,
                 const VertexProgram& program)
    : config_(config),
      graph_(graph),
      program_(program),
      update_circuit_(BuildUpdateCircuit(program)),
      update_plan_(update_circuit_) {
  DSTRESS_CHECK(graph.MaxDegree() <= program.degree_bound);
  if (config.checkpoint_every > 0 || config.resume) {
    // Checkpoints only rewind dealer triple tapes (src/ha/checkpoint.h);
    // OT sessions hold cross-process key state that cannot be restored.
    DSTRESS_CHECK(!config.use_ot_triples);
    DSTRESS_CHECK(!config.checkpoint_path.empty());
  }

  transfer_params_.block_size = config.block_size;
  transfer_params_.message_bits = program.message_bits;
  transfer_params_.budget_alpha = config.transfer_budget_alpha;
  if (config.dlog_range > 0) {
    transfer_params_.dlog_range = config.dlog_range;
  } else {
    // Auto-size: a run performs about |E|·(k+1)·L·I bit-sum lookups; budget
    // a 1e-6 total failure probability across all of them.
    double draws = static_cast<double>(graph.Edges().size()) * config.block_size *
                   program.message_bits * std::max(program.iterations, 1) *
                   std::max(config.ensemble_width, 1);
    transfer_params_.dlog_range =
        transfer_params_.RecommendedDlogRange(1e-6 / std::max(draws, 1.0));
  }

  // The transport first: tcp forks its bank processes in its constructor,
  // which must happen before the pool has started a thread. The trusted
  // setup then runs its EC work on the pool.
  net_ = net::MakeTransport(config.transport, graph.num_vertices());
  pool_ = std::make_unique<WorkerPool>(config.max_parallel_tasks);

  SetupConfig setup_config;
  setup_config.num_nodes = graph.num_vertices();
  setup_config.block_size = config.block_size;
  setup_config.message_bits = program.message_bits;
  setup_config.seed = config.seed;
  setup_ = RunTrustedSetup(setup_config, graph, *pool_);

  dlog_table_ = std::make_unique<crypto::DlogTable>(transfer_params_.dlog_range);
  edges_ = graph.Edges();
  edge_in_slot_ = graph::EdgeInSlots(graph);
  edge_out_slot_.reserve(edges_.size());
  for (int v = 0; v < graph.num_vertices(); v++) {
    for (int slot = 0; slot < graph.OutDegree(v); slot++) {
      edge_out_slot_.push_back(slot);
    }
  }

  if (config_.use_ot_triples) {
    triple_factory_ =
        std::make_unique<mpc::TripleFactory>(net_.get(), RolePrgSeed(config_.seed, 0x78));
  }

  // The aggregation plan: the shared shape, with extra blocks for the
  // tree's leaf and combine groups drawn from the RolePrg(0x55, 0) stream.
  // Stage 0 sums vertex states with the aggregate circuit, later stages
  // sum partials with the combine circuit, and only the root's circuit adds
  // the output noise.
  if (config.aggregation_fanout > 0) {
    agg_noise_tag_ = 0x66;
  }
  const std::vector<AggregationStage> shape =
      AggregationShape(graph.num_vertices(), config.aggregation_fanout);
  auto block_prg = RolePrg(0x55, 0);
  for (uint64_t k = 0; k < shape.size(); k++) {
    const bool root = k + 1 == shape.size();
    AggStage stage;
    stage.shape = shape[k];
    stage.input_session = k == 0 ? kAggGatherSession : kAggCombineSession | (k << 32);
    stage.tag_base = root ? kAggTripleTag : kAggTripleTag + 1 + (k << 20);
    for (int g = 0; g < stage.shape.groups(); g++) {
      stage.blocks.push_back(root ? setup_.aggregation_block : setup_.MakeExtraBlock(block_prg));
      const int size = stage.shape.GroupSize(g);
      if (stage.plans.count(size) == 0) {
        stage.plans.emplace(size, k == 0 ? BuildAggregateCircuit(program_, size, root)
                                         : BuildCombineCircuit(program_, size, root));
      }
      agg_and_gates_ += stage.PlanFor(g).stats().num_and;
    }
    agg_stages_.push_back(std::move(stage));
  }
}

Runtime::~Runtime() = default;

crypto::ChaCha20Prg Runtime::RolePrg(uint64_t role_tag, uint64_t instance) {
  return crypto::ChaCha20Prg::FromSeed(RolePrgSeed(config_.seed, role_tag), instance);
}

mpc::TripleSource* Runtime::TripleSourceFor(uint64_t tag, int member_index) {
  if (triple_factory_ != nullptr) {
    // OT triples: the offline waves enqueued per phase carry this role's
    // triples; the view is a local blocking cursor over them.
    return triple_factory_->ViewFor(tag, member_index);
  }
  std::pair<uint64_t, int> key{tag, member_index};
  std::lock_guard<std::mutex> lock(triple_mu_);
  auto it = triple_sources_.find(key);
  if (it == triple_sources_.end()) {
    it = triple_sources_
             .emplace(key, std::make_unique<mpc::DealerTripleSource>(
                               member_index, config_.block_size, config_.seed ^ tag))
             .first;
  }
  return it->second.get();
}

void Runtime::EnqueueComputeWave(int num_scenarios) {
  if (triple_factory_ == nullptr) {
    return;
  }
  const size_t num_and = update_circuit_.stats().num_and;
  if (num_and == 0) {
    return;  // the online phase draws no triples either (ComputePhase guards)
  }
  const int n = graph_.num_vertices();
  std::vector<mpc::TripleDemand> demands;
  demands.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; v++) {
    mpc::TripleDemand d;
    d.tag = static_cast<uint64_t>(v);
    d.parties = setup_.blocks[v];
    // Ensembles draw num_and once per scenario from the shared (v, m)
    // source (ComputePhase), so one wave covers all lanes.
    d.count = num_and * static_cast<size_t>(num_scenarios);
    demands.push_back(std::move(d));
  }
  triple_factory_->Enqueue(std::move(demands));
}

void Runtime::EnqueueAggregateWave(int num_scenarios) {
  if (triple_factory_ == nullptr) {
    return;
  }
  // Every lane draws each group's AND count from the group's shared
  // (tag, member) source (Aggregate), so one demand per group covers all.
  std::vector<mpc::TripleDemand> demands;
  for (const AggStage& stage : agg_stages_) {
    for (int g = 0; g < stage.shape.groups(); g++) {
      const size_t num_and = stage.PlanFor(g).stats().num_and;
      if (num_and == 0) {
        continue;
      }
      mpc::TripleDemand d;
      d.tag = stage.tag_base + static_cast<uint64_t>(g);
      d.parties = stage.blocks[g];
      d.count = num_and * static_cast<size_t>(num_scenarios);
      demands.push_back(std::move(d));
    }
  }
  triple_factory_->Enqueue(std::move(demands));
}

uint64_t Runtime::ConfigFingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; i++) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(graph_.num_vertices()));
  mix(static_cast<uint64_t>(edges_.size()));
  mix(static_cast<uint64_t>(config_.block_size));
  mix(static_cast<uint64_t>(program_.state_bits));
  mix(static_cast<uint64_t>(program_.message_bits));
  mix(static_cast<uint64_t>(program_.degree_bound));
  mix(static_cast<uint64_t>(program_.iterations));
  mix(static_cast<uint64_t>(config_.aggregation_fanout));
  mix(config_.seed);
  return h;
}

void Runtime::SaveCheckpoint(int next_iteration, RunMetrics* m) {
  Stopwatch sw;
  ha::RuntimeSnapshot snapshot;
  snapshot.config_fingerprint = ConfigFingerprint();
  snapshot.next_iteration = next_iteration;
  snapshot.state_shares = state_shares_;
  snapshot.inmsg_shares = inmsg_shares_;
  snapshot.outmsg_shares = outmsg_shares_;
  {
    std::lock_guard<std::mutex> lock(triple_mu_);
    for (const auto& [key, source] : triple_sources_) {
      snapshot.triple_cursors.push_back({key.first, key.second, source->calls()});
    }
  }
  std::string error;
  if (!ha::SaveSnapshot(config_.checkpoint_path, snapshot, &error)) {
    std::fprintf(stderr, "checkpoint: %s\n", error.c_str());
    DSTRESS_CHECK(false);
  }
  m->ha_checkpoint_seconds += sw.ElapsedSeconds();
}

int Runtime::RestoreCheckpoint(int num_scenarios) {
  ha::RuntimeSnapshot snapshot;
  std::string error;
  if (!ha::LoadSnapshot(config_.checkpoint_path, &snapshot, &error)) {
    std::fprintf(stderr, "resume: %s\n", error.c_str());
    DSTRESS_CHECK(false);
  }
  if (snapshot.config_fingerprint != ConfigFingerprint()) {
    std::fprintf(stderr, "resume: checkpoint %s is from a different run configuration\n",
                 config_.checkpoint_path.c_str());
    DSTRESS_CHECK(false);
  }
  // The fingerprint does not cover the lane count, so a checkpoint of a
  // run with another number of lanes is caught here.
  const size_t expected = static_cast<size_t>(num_scenarios) * graph_.num_vertices();
  if (snapshot.state_shares.size() != expected) {
    std::fprintf(stderr,
                 "resume: checkpoint %s holds %zu vertex entries, this run needs %zu"
                 " (%d lanes x %d vertices)\n",
                 config_.checkpoint_path.c_str(), snapshot.state_shares.size(), expected,
                 num_scenarios, graph_.num_vertices());
    DSTRESS_CHECK(false);
  }
  state_shares_ = std::move(snapshot.state_shares);
  inmsg_shares_ = std::move(snapshot.inmsg_shares);
  outmsg_shares_ = std::move(snapshot.outmsg_shares);
  {
    // Fresh dealer sources fast-forwarded to the saved tape positions; any
    // source the snapshot does not name starts at zero calls, exactly as
    // the uninterrupted run would first touch it.
    std::lock_guard<std::mutex> lock(triple_mu_);
    for (const auto& cursor : snapshot.triple_cursors) {
      auto source = std::make_unique<mpc::DealerTripleSource>(
          cursor.member, config_.block_size, config_.seed ^ cursor.tag);
      source->FastForward(cursor.calls);
      triple_sources_[{cursor.tag, cursor.member}] = std::move(source);
    }
  }
  DSTRESS_CHECK(snapshot.next_iteration >= 0 && snapshot.next_iteration <= program_.iterations);
  return snapshot.next_iteration;
}

// Scenario lanes. Run is RunEnsemble with one scenario: S scenarios advance
// in lockstep as extra lanes of the batched planes, role (s, v) living at
// flat share index s*n + v. Compute phases batch all S*n vertex instances
// into one EvalBatchInstances pass, a communication step runs every lane's
// scenario-salted edge transfers in one pool pass, and each aggregation
// stage batches every lane's groups; lane 0's PRG instances, session ids and
// order keys are the solo run's. Scenario s's released figure equals
// Run(initial_states[s]): init-share and transfer randomness cancel out of
// opened values, and the aggregation noise is drawn from the same
// (agg_noise_tag_, m) streams every solo run uses.

void Runtime::InitPhase(const std::vector<std::vector<mpc::BitVector>>& initial_states) {
  const int n = graph_.num_vertices();
  const int k1 = config_.block_size;
  const int d = program_.degree_bound;
  const int num_scenarios = static_cast<int>(initial_states.size());
  const size_t total = static_cast<size_t>(num_scenarios) * n;

  state_shares_.assign(total, std::vector<mpc::BitVector>(k1));
  inmsg_shares_.assign(
      total, std::vector<std::vector<mpc::BitVector>>(
                 d, std::vector<mpc::BitVector>(k1, mpc::BitVector(program_.message_bits, 0))));
  outmsg_shares_.assign(
      total, std::vector<std::vector<mpc::BitVector>>(
                 d, std::vector<mpc::BitVector>(k1, mpc::BitVector(program_.message_bits, 0))));

  for (int s = 0; s < num_scenarios; s++) {
    const uint64_t salt = static_cast<uint64_t>(s) << 40;
    for (int v = 0; v < n; v++) {
      DSTRESS_CHECK(static_cast<int>(initial_states[s][v].size()) == program_.state_bits);
      auto prg = RolePrg(0x11, static_cast<uint64_t>(s) * n + static_cast<uint64_t>(v));
      auto shares = mpc::ShareBits(initial_states[s][v], k1, prg);
      for (int m = 0; m < k1; m++) {
        net_->Send(v, setup_.blocks[v][m], PackBits(shares[m]),
                   kInitSession | salt | static_cast<uint64_t>(v));
      }
    }
  }
  for (int s = 0; s < num_scenarios; s++) {
    const uint64_t salt = static_cast<uint64_t>(s) << 40;
    for (int v = 0; v < n; v++) {
      for (int m = 0; m < k1; m++) {
        Bytes raw =
            net_->Recv(setup_.blocks[v][m], v, kInitSession | salt | static_cast<uint64_t>(v));
        state_shares_[static_cast<size_t>(s) * n + v][m] =
            UnpackBits(raw, static_cast<size_t>(program_.state_bits));
      }
    }
  }
}

void Runtime::ComputePhase(int num_scenarios) {
  const int n = graph_.num_vertices();
  const int k1 = config_.block_size;
  const size_t num_and = update_circuit_.stats().num_and;

  std::vector<std::pair<int, int>> roles;
  roles.reserve(static_cast<size_t>(num_scenarios) * n * k1);
  for (int g = 0; g < num_scenarios * n; g++) {
    for (int m = 0; m < k1; m++) {
      roles.emplace_back(g, m);
    }
  }
  const size_t rounds = RunBatchedPhase(
      kBatchSession, roles,
      [&](int g, int m) {
        // Triple sources are shared per (vertex, member) across scenarios —
        // consumed in ascending scenario order at every member, and triple
        // randomness cancels out of opened results anyway.
        const int v = g % n;
        mpc::TripleSource* source = TripleSourceFor(static_cast<uint64_t>(v), m);
        mpc::BatchInstance item;
        item.plan = &update_plan_;
        item.parties = setup_.blocks[v];
        item.my_index = m;
        if (num_and > 0) {
          item.triples = source->Generate(num_and);
        }
        item.input_shares = AssembleUpdateInput(g, m);
        item.order_key = static_cast<uint64_t>(g);
        return item;
      },
      [&](size_t i, const mpc::BitVector& output) {
        ScatterUpdateOutput(roles[i].first, roles[i].second, output);
      });
  compute_rounds_ = std::max(compute_rounds_, rounds);
}

mpc::BitVector Runtime::AssembleUpdateInput(int v, int m) const {
  mpc::BitVector input = state_shares_[v][m];
  input.reserve(update_circuit_.num_inputs());
  for (int slot = 0; slot < program_.degree_bound; slot++) {
    mpc::AppendBits(&input, inmsg_shares_[v][slot][m]);
  }
  return input;
}

void Runtime::ScatterUpdateOutput(int v, int m, const mpc::BitVector& output) {
  // Split: new state, then D outgoing message words.
  state_shares_[v][m].assign(output.begin(), output.begin() + program_.state_bits);
  size_t cursor = static_cast<size_t>(program_.state_bits);
  for (int slot = 0; slot < program_.degree_bound; slot++) {
    outmsg_shares_[v][slot][m].assign(output.begin() + cursor,
                                      output.begin() + cursor + program_.message_bits);
    cursor += program_.message_bits;
  }
}

// A batched MPC phase: every role in `roles` advances through its circuit's
// AND layers in lockstep in one EvalBatchInstances call on this thread.
// Nothing ever parks: dealer tapes and factory views need no communication
// at draw time (the OT traffic already ran in the offline wave), and each
// round's receives are satisfied by sends earlier in the same round.
size_t Runtime::RunBatchedPhase(net::SessionId session,
                                const std::vector<std::pair<int, int>>& roles,
                                const std::function<mpc::BatchInstance(int, int)>& make_item,
                                const std::function<void(size_t, const mpc::BitVector&)>& sink) {
  std::vector<mpc::BatchInstance> items;
  items.reserve(roles.size());
  for (auto [g, m] : roles) {
    items.push_back(make_item(g, m));
  }
  mpc::BatchStats stats;
  std::vector<mpc::BitVector> outputs =
      mpc::EvalBatchInstances(net_.get(), session, std::move(items), &stats);
  triples_consumed_.fetch_add(stats.triples_consumed, std::memory_order_relaxed);
  for (size_t i = 0; i < roles.size(); i++) {
    sink(i, outputs[i]);
  }
  return stats.rounds;
}

// A communication step: one pool task per (lane, edge) pair runs that
// edge's whole transfer (transfer::TransferEdge), so the step is a single
// pool pass at any lane count. Every Recv of a task reads what the task
// itself sent, so no task waits on another. Task t is edge t % |E| of lane
// s = t / |E|: its shares live at flat index s*n + v, its session is salted
// with s << 40, and t itself is its PRG instance (s*|E| + e), so lane 0
// runs the solo schedule bit for bit and the lanes stay independent streams.
void Runtime::CommunicatePhase(int num_scenarios) {
  const int k1 = config_.block_size;
  const size_t n = static_cast<size_t>(graph_.num_vertices());
  const size_t num_edges = edges_.size();
  if (noise_cache_ == nullptr) {
    noise_cache_ = std::make_unique<transfer::EvenNoiseCache>(dlog_table_->range());
  }

  pool_->Run(static_cast<size_t>(num_scenarios) * num_edges, [&](size_t t) {
    const size_t s = t / num_edges;
    const size_t e = t % num_edges;
    auto [i, j] = edges_[e];
    const int in_slot = edge_in_slot_[e];
    std::vector<crypto::ChaCha20Prg> prgs;
    std::vector<const transfer::MemberKeys*> keys;
    prgs.reserve(k1);
    keys.reserve(k1);
    for (int x = 0; x < k1; x++) {
      prgs.push_back(RolePrg(0x22, (t << 8) | static_cast<uint64_t>(x)));
      keys.push_back(&setup_.node_keys[setup_.blocks[j][x]]);
    }
    inmsg_shares_[s * n + j][in_slot] = transfer::TransferEdge(
        net_.get(), kTransferSession | (s << 40) | e, transfer_params_, i, setup_.blocks[i],
        outmsg_shares_[s * n + i][edge_out_slot_[e]], std::move(prgs),
        setup_.edge_certificates.at({i, j}), RolePrg(0x33, t), *noise_cache_, j,
        setup_.blocks[j], setup_.neighbor_keys[j][in_slot], keys, *dlog_table_);
  });
}

// The aggregation of S lanes along the plan. At every stage, member m of
// each input's block forwards its share to member m of its group's block
// (index-aligned, so collusion resistance carries over), and every (lane,
// group, member) role then evaluates its sum circuit in one lockstep batch;
// the root's members also feed their noise bits. Lane s uses sessions
// salted with s << 40 and the noise stream of its solo run, so lane 0's
// messages are the solo run's and every lane releases its solo figure.
std::vector<int64_t> Runtime::Aggregate(int num_scenarios) {
  const int k1 = config_.block_size;
  // Input i of lane s at the current stage: member m's share is
  // (*inputs)[s * num_inputs + i][m], held by member m of (*holders)[i].
  const std::vector<std::vector<mpc::BitVector>>* inputs = &state_shares_;
  const std::vector<std::vector<int>>* holders = &setup_.blocks;
  size_t input_bits = static_cast<size_t>(program_.state_bits);
  std::vector<std::vector<mpc::BitVector>> partials;
  for (const AggStage& stage : agg_stages_) {
    const bool root = &stage == &agg_stages_.back();
    const int num_inputs = stage.shape.inputs;
    const int width = stage.shape.width;
    const int groups = stage.shape.groups();
    for (int s = 0; s < num_scenarios; s++) {
      const uint64_t salt = static_cast<uint64_t>(s) << 40;
      for (int i = 0; i < num_inputs; i++) {
        for (int m = 0; m < k1; m++) {
          net_->Send((*holders)[i][m], stage.blocks[i / width][m],
                     PackBits((*inputs)[static_cast<size_t>(s) * num_inputs + i][m]),
                     stage.input_session | salt | static_cast<uint64_t>(i));
        }
      }
    }

    std::vector<std::pair<int, int>> roles;  // (lane * groups + group, member)
    roles.reserve(static_cast<size_t>(num_scenarios) * groups * k1);
    for (int r = 0; r < num_scenarios * groups; r++) {
      for (int m = 0; m < k1; m++) {
        roles.emplace_back(r, m);
      }
    }
    std::vector<std::vector<mpc::BitVector>> outputs(static_cast<size_t>(num_scenarios) * groups,
                                                     std::vector<mpc::BitVector>(k1));
    RunBatchedPhase(
        kAggEvalSession, roles,
        [&](int r, int m) {
          const int g = r % groups;
          const uint64_t salt = static_cast<uint64_t>(r / groups) << 40;
          const circuit::EvalPlan& plan = stage.PlanFor(g);
          mpc::BatchInstance item;
          item.plan = &plan;
          item.parties = stage.blocks[g];
          item.my_index = m;
          for (int i = g * width; i < g * width + stage.shape.GroupSize(g); i++) {
            Bytes raw = net_->Recv(stage.blocks[g][m], (*holders)[i][m],
                                   stage.input_session | salt | static_cast<uint64_t>(i));
            mpc::AppendBits(&item.input_shares, UnpackBits(raw, input_bits));
          }
          if (root) {
            // Noise randomness: each member feeds its own uniform bits as
            // its input shares; the shared value is the XOR of all
            // members' bits.
            auto prg = RolePrg(agg_noise_tag_, static_cast<uint64_t>(m));
            const size_t noise_bits = dp::NoiseInputBits(program_.output_noise);
            for (size_t b = 0; b < noise_bits; b++) {
              item.input_shares.push_back(prg.NextBit() ? 1 : 0);
            }
          }
          if (plan.stats().num_and > 0) {
            item.triples = TripleSourceFor(stage.tag_base + static_cast<uint64_t>(g), m)
                               ->Generate(plan.stats().num_and);
          }
          item.order_key = static_cast<uint64_t>(r);
          return item;
        },
        [&](size_t i, const mpc::BitVector& output) {
          outputs[roles[i].first][roles[i].second] = output;
        });
    partials = std::move(outputs);
    inputs = &partials;
    holders = &stage.blocks;
    input_bits = static_cast<size_t>(program_.aggregate_bits);
  }

  // Open every lane's noised total: each member of the aggregation block
  // sends its output shares to every other member as one message of
  // PackWords (packed little-endian, zero-padded to whole 8-byte words),
  // and the XOR of all members' shares is the release.
  const std::vector<int>& agg = setup_.aggregation_block;
  for (int s = 0; s < num_scenarios; s++) {
    const net::SessionId session = kAggEvalSession | (static_cast<uint64_t>(s) << 40);
    for (int m = 0; m < k1; m++) {
      const Bytes block = PackWords(partials[s][m]);
      for (int m2 = 0; m2 < k1; m2++) {
        if (m2 != m) {
          net_->Send(agg[m], agg[m2], block, session);
        }
      }
    }
  }
  std::vector<int64_t> results(num_scenarios, 0);
  for (int s = 0; s < num_scenarios; s++) {
    const net::SessionId session = kAggEvalSession | (static_cast<uint64_t>(s) << 40);
    for (int m = 0; m < k1; m++) {
      mpc::BitVector opened = partials[s][m];
      for (int m2 = 0; m2 < k1; m2++) {
        if (m2 == m) {
          continue;
        }
        Bytes raw = net_->Recv(agg[m], agg[m2], session);
        DSTRESS_CHECK(raw.size() == PackedWords(opened.size()) * 8);
        for (size_t b = 0; b < opened.size(); b++) {
          opened[b] ^= (raw[b / 8] >> (b % 8)) & 1;
        }
      }
      if (m == 0) {
        results[s] = mpc::BitsToSignedWord(opened, 0, program_.aggregate_bits);
      }
    }
  }
  return results;
}

int64_t Runtime::Run(const std::vector<mpc::BitVector>& initial_states, RunMetrics* metrics) {
  return RunEnsemble({initial_states}, metrics)[0];
}

std::vector<int64_t> Runtime::RunEnsemble(
    const std::vector<std::vector<mpc::BitVector>>& initial_states, RunMetrics* metrics) {
  const int num_scenarios = static_cast<int>(initial_states.size());
  DSTRESS_CHECK(num_scenarios > 0);
  for (const std::vector<mpc::BitVector>& states : initial_states) {
    DSTRESS_CHECK(static_cast<int>(states.size()) == graph_.num_vertices());
  }
  RunMetrics local;
  RunMetrics* m = metrics != nullptr ? metrics : &local;
  *m = RunMetrics{};
  m->iterations = program_.iterations;
  m->update_and_gates = update_circuit_.stats().num_and;
  m->update_and_depth = update_circuit_.stats().and_depth;
  triples_consumed_.store(0, std::memory_order_relaxed);
  compute_rounds_ = 0;

  Stopwatch total;
  uint64_t bytes_before = net_->TotalBytes();
  uint64_t base_ots_before = ot::BaseOtExecutionCount();
  mpc::TripleFactoryStats factory_before;
  if (triple_factory_ != nullptr) {
    factory_before = triple_factory_->stats();
  }

  // Offline wave for the first computation step (all S lanes at once); the
  // per-iteration enqueues below keep the factory one phase ahead of the
  // online plane.
  EnqueueComputeWave(num_scenarios);

  Stopwatch phase;
  int start_iteration = 0;
  if (config_.resume) {
    // Rejoin at the checkpointed iteration barrier: the share arrays of
    // every lane and the dealer tapes replace the init phase (docs/ha.md).
    start_iteration = RestoreCheckpoint(num_scenarios);
    m->resumed_from_iteration = start_iteration;
    m->init.seconds = phase.ElapsedSeconds();
  } else {
    InitPhase(initial_states);
    m->init.seconds = phase.ElapsedSeconds();
    m->init.bytes = net_->TotalBytes() - bytes_before;
  }

  uint64_t phase_bytes = net_->TotalBytes();
  for (int iter = start_iteration; iter < program_.iterations; iter++) {
    // Prefetch the NEXT computation step's triples (the loop's next
    // iteration, or the final step after it) while this iteration's online
    // phases evaluate.
    EnqueueComputeWave(num_scenarios);

    phase.Reset();
    ComputePhase(num_scenarios);
    m->compute.seconds += phase.ElapsedSeconds();
    m->compute.bytes += net_->TotalBytes() - phase_bytes;
    phase_bytes = net_->TotalBytes();

    phase.Reset();
    CommunicatePhase(num_scenarios);
    m->communicate.seconds += phase.ElapsedSeconds();
    m->communicate.bytes += net_->TotalBytes() - phase_bytes;
    phase_bytes = net_->TotalBytes();

    if (config_.checkpoint_every > 0 && (iter + 1) % config_.checkpoint_every == 0) {
      SaveCheckpoint(iter + 1, m);
    }
  }
  // Final computation step (§3.6). Its triples were enqueued by the last
  // loop iteration (or the pre-loop enqueue when iterations == 0); the
  // aggregation wave overlaps this step.
  EnqueueAggregateWave(num_scenarios);
  phase.Reset();
  ComputePhase(num_scenarios);
  m->compute.seconds += phase.ElapsedSeconds();
  m->compute.bytes += net_->TotalBytes() - phase_bytes;
  phase_bytes = net_->TotalBytes();

  phase.Reset();
  std::vector<int64_t> results = Aggregate(num_scenarios);
  m->aggregate_and_gates = agg_and_gates_ * static_cast<size_t>(num_scenarios);
  m->aggregate.seconds = phase.ElapsedSeconds();
  m->aggregate.bytes = net_->TotalBytes() - phase_bytes;

  m->total_seconds = total.ElapsedSeconds();
  m->total_bytes = net_->TotalBytes() - bytes_before;
  m->avg_bytes_per_node = static_cast<double>(m->total_bytes) / graph_.num_vertices();
  m->update_rounds = compute_rounds_;
  m->triples_consumed = triples_consumed_.load(std::memory_order_relaxed);
  m->ha_control_bytes = net_->HaControlBytes();
  m->ha_resumes = net_->HaResumeCount();
  m->base_ot_executions = ot::BaseOtExecutionCount() - base_ots_before;
  if (triple_factory_ != nullptr) {
    mpc::TripleFactoryStats fs = triple_factory_->stats();
    m->offline_seconds = fs.offline_seconds - factory_before.offline_seconds;
    m->offline_wait_seconds = fs.online_wait_seconds - factory_before.online_wait_seconds;
  }
  return results;
}

}  // namespace dstress::core
