// The kCleartextFast backend: the flat graph plane (src/graphplane) composed
// with the secure path's circuits, output-noise sampler and aggregation
// schedule. Its released figures, per-vertex states and per-node
// TrafficStats are those of the per-vertex container plane it replaced,
// pinned by the golden digests in tests/graphplane_test.cc.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/eval_plan.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/core/worker_pool.h"
#include "src/crypto/chacha20.h"
#include "src/dp/noise_circuit.h"
#include "src/engine/cleartext_backend.h"
#include "src/graphplane/plane.h"
#include "src/mpc/packed.h"
#include "src/net/transport_spec.h"

namespace dstress::engine {

namespace {

// Session namespaces of the cleartext wire format, mirroring the secure
// runtime's convention of keying streams by phase.
constexpr net::SessionId kEdgeSession = 1ULL << 60;
constexpr net::SessionId kGatherSession = 2ULL << 60;
constexpr net::SessionId kCombineSession = 3ULL << 60;

// The plane's pool size: `max_parallel_tasks` if set, else one thread per
// hardware thread. core::ResolveThreadBudget's 4x would only add threads
// and their thread-local scratch (worker_pool.h).
int PlaneThreads(int max_parallel_tasks) {
  return max_parallel_tasks > 0 ? max_parallel_tasks : core::HardwareThreads();
}

uint64_t BitsToWord(const std::vector<uint8_t>& bits) {
  uint64_t value = 0;
  for (size_t i = 0; i < bits.size(); i++) {
    value |= static_cast<uint64_t>(bits[i] & 1) << i;
  }
  return value;
}

class ArenaCleartextBackend : public ExecutionBackend {
 public:
  explicit ArenaCleartextBackend(const BackendContext& context)
      : graph_(*context.graph),
        program_(*context.program),
        config_(context.runtime_config),
        early_exit_(context.spec != nullptr && context.spec->cleartext_early_exit),
        update_circuit_(core::BuildUpdateCircuit(program_)),
        contribution_circuit_(core::BuildAggregateCircuit(program_, 1, /*with_noise=*/false)) {
    DSTRESS_CHECK(graph_.MaxDegree() <= program_.degree_bound);
    // Checkpoints snapshot the secure runtime's share arrays; this plane
    // has none, so a checkpointed or resumed cleartext run would silently
    // do neither. The scenario parser rejects the combination by name.
    DSTRESS_CHECK(config_.checkpoint_every == 0 && !config_.resume);

    circuit::Builder noise_builder;
    noise_builder.OutputWord(dp::BuildGeometricNoise(noise_builder, program_.output_noise,
                                                     program_.aggregate_bits));
    noise_circuit_ = std::make_unique<circuit::Circuit>(noise_builder.Build());

    std::vector<int> holders(static_cast<size_t>(graph_.num_vertices()));
    for (size_t v = 0; v < holders.size(); v++) {
      holders[v] = static_cast<int>(v);
    }
    const std::vector<core::AggregationStage> shape =
        core::AggregationShape(graph_.num_vertices(), config_.aggregation_fanout);
    for (uint64_t k = 0; k < shape.size(); k++) {
      GatherStage stage{shape[k], holders, {},
                        k == 0 ? kGatherSession : kCombineSession | (k << 32)};
      for (int g = 0; g < shape[k].groups(); g++) {
        stage.owners.push_back(holders[static_cast<size_t>(g * shape[k].width)]);
      }
      holders = stage.owners;
      gather_stages_.push_back(std::move(stage));
    }

    net_ = net::MakeTransport(config_.transport, graph_.num_vertices());
    pool_ = std::make_unique<core::WorkerPool>(PlaneThreads(config_.max_parallel_tasks));
  }

  const char* name() const override { return ExecutionModeName(ExecutionMode::kCleartextFast); }

  std::vector<int64_t> Execute(const std::vector<std::vector<mpc::BitVector>>& lanes,
                               core::RunMetrics* metrics) override;

  std::vector<mpc::BitVector> DebugFinalStates() const override {
    if (!last_run_one_lane_) {
      return {};
    }
    std::vector<mpc::BitVector> states;
    states.reserve(static_cast<size_t>(graph_.num_vertices()));
    for (int v = 0; v < graph_.num_vertices(); v++) {
      states.push_back(plane_->VertexState(v, 0));
    }
    return states;
  }

  void AttachObserver(net::NetworkObserver* observer) override { net_->SetObserver(observer); }

  const net::Transport& transport() const override { return *net_; }

 private:
  // One wrapping sum per scenario from the plane's final states: packed
  // contribution eval over every lane, then the transpose reduction. Same
  // circuit as a per-vertex Eval, so per-lane values are bit-identical;
  // vertex-major addition order, so sums are too.
  std::vector<uint64_t> PackedContributionSums(const graphplane::GraphPlane& plane) const {
    return plane.ScenarioSums(plane.EvalOverStates(contribution_plan_),
                              program_.aggregate_bits);
  }

  // sum + sampled noise, masked and sign-extended at aggregate_bits — the
  // aggregation circuit's arithmetic.
  int64_t Release(uint64_t sum, uint64_t noise) const {
    const int agg_bits = program_.aggregate_bits;
    const uint64_t mask = agg_bits >= 64 ? ~0ULL : (1ULL << agg_bits) - 1;
    const uint64_t value = (sum + noise) & mask;
    if (agg_bits < 64 && (value >> (agg_bits - 1)) != 0) {
      return static_cast<int64_t>(value) - static_cast<int64_t>(1ULL << agg_bits);
    }
    return static_cast<int64_t>(value);
  }

  uint64_t SampleNoise() const {
    auto prg = crypto::ChaCha20Prg::FromSeed(
        core::RolePrgSeed(config_.seed, core::kNoiseRoleTag), /*instance=*/0);
    std::vector<uint8_t> noise_input(noise_circuit_->num_inputs());
    for (auto& bit : noise_input) {
      bit = prg.NextBit() ? 1 : 0;
    }
    return BitsToWord(noise_circuit_->Eval(noise_input));
  }

  // One level of the aggregation hop schedule (core::AggregationShape):
  // input i travels from holders[i] to its group's owner,
  // owners[i / shape.width], on session | i. Stage 0 carries vertex states,
  // later stages partial sums. A group is owned by its first input's
  // holder, so group 0 of every stage — the root included — is owned by
  // node 0, the aggregator.
  struct GatherStage {
    core::AggregationStage shape;
    std::vector<int> holders;
    std::vector<int> owners;
    net::SessionId session = 0;
  };

  // Payload bytes of one hop of stage `stage` at S lanes.
  size_t PayloadBytes(size_t stage, int num_scenarios) const {
    const int bits = stage == 0 ? program_.state_bits : program_.aggregate_bits;
    return (static_cast<size_t>(bits) * num_scenarios + 7) / 8;
  }

  // Aggregation of a plane of S scenario lanes: every hop of the schedule
  // crosses the transport — as one bulk-metered TrafficStats delta when the
  // transport accepts, literally otherwise — then the packed contribution
  // reduction releases per-lane figures. Associative two's-complement
  // addition makes that flat reduction equal to the tree's level-by-level
  // partials.
  void Aggregate(const graphplane::GraphPlane& plane, int num_scenarios, int64_t* results) {
    std::vector<net::TrafficStats> delta(static_cast<size_t>(graph_.num_vertices()));
    for (size_t st = 0; st < gather_stages_.size(); st++) {
      const GatherStage& stage = gather_stages_[st];
      const size_t bytes = PayloadBytes(st, num_scenarios);
      for (size_t i = 0; i < stage.holders.size(); i++) {
        net::TrafficStats& from = delta[static_cast<size_t>(stage.holders[i])];
        net::TrafficStats& to = delta[static_cast<size_t>(stage.owners[i / stage.shape.width])];
        from.bytes_sent += bytes;
        from.messages_sent += 1;
        to.bytes_received += bytes;
        to.messages_received += 1;
      }
    }
    if (!net_->MeterSelfDelivered(delta)) {
      SendGatherLiterally(plane, num_scenarios);
    }

    const std::vector<uint64_t> sums = PackedContributionSums(plane);
    const uint64_t noise = SampleNoise();
    for (int s = 0; s < num_scenarios; s++) {
      results[s] = Release(sums[static_cast<size_t>(s)], noise);
    }
  }

  // The schedule's literal Send/Recv, stage by stage, for an attached
  // observer or a real wire. Payload bit r*S + s is bit r of lane s: the
  // vertex states out of the arena, then each group's partial sum of its
  // inputs' contributions.
  void SendGatherLiterally(const graphplane::GraphPlane& plane, int num_scenarios) {
    const int n = graph_.num_vertices();
    // values[i][s]: lane s's contribution sum carried by input i.
    std::vector<std::vector<uint64_t>> values(static_cast<size_t>(n),
                                              std::vector<uint64_t>(num_scenarios));
    for (int v = 0; v < n; v++) {
      for (int s = 0; s < num_scenarios; s++) {
        values[static_cast<size_t>(v)][static_cast<size_t>(s)] =
            BitsToWord(contribution_circuit_.Eval(plane.VertexState(v, s)));
      }
    }
    for (size_t st = 0; st < gather_stages_.size(); st++) {
      const GatherStage& stage = gather_stages_[st];
      const int bits = st == 0 ? program_.state_bits : program_.aggregate_bits;
      const size_t bytes = PayloadBytes(st, num_scenarios);
      for (size_t i = 0; i < stage.holders.size(); i++) {
        Bytes payload(bytes, 0);
        for (int r = 0; r < bits; r++) {
          uint64_t lanes = 0;
          if (st == 0) {
            lanes = plane.StateLaneGroup(static_cast<size_t>(r), static_cast<int>(i),
                                         num_scenarios);
          } else {
            for (int s = 0; s < num_scenarios; s++) {
              lanes |= ((values[i][static_cast<size_t>(s)] >> r) & 1) << s;
            }
          }
          graphplane::InsertBits(&payload, static_cast<size_t>(r) * num_scenarios, lanes,
                                 num_scenarios);
        }
        net_->Send(stage.holders[i], stage.owners[i / stage.shape.width], std::move(payload),
                   stage.session | i);
      }
      std::vector<std::vector<uint64_t>> partials(stage.owners.size(),
                                                  std::vector<uint64_t>(num_scenarios, 0));
      for (size_t i = 0; i < stage.holders.size(); i++) {
        Bytes raw =
            net_->Recv(stage.owners[i / stage.shape.width], stage.holders[i], stage.session | i);
        DSTRESS_CHECK(raw.size() == bytes);
        for (int s = 0; s < num_scenarios; s++) {
          partials[i / stage.shape.width][static_cast<size_t>(s)] +=
              values[i][static_cast<size_t>(s)];
        }
      }
      values = std::move(partials);
    }
  }

  const graph::Graph& graph_;
  core::VertexProgram program_;
  core::RuntimeConfig config_;
  bool early_exit_ = false;
  circuit::Circuit update_circuit_;
  circuit::EvalPlan update_plan_{update_circuit_};
  circuit::Circuit contribution_circuit_;
  circuit::EvalPlan contribution_plan_{contribution_circuit_};
  std::unique_ptr<circuit::Circuit> noise_circuit_;
  std::vector<GatherStage> gather_stages_;
  std::unique_ptr<net::Transport> net_;
  std::unique_ptr<core::WorkerPool> pool_;
  // The plane of the last chunk, built on the first run and rebuilt only
  // when a chunk's lane count differs from its own (the stride follows the
  // lane count); Reset before every chunk. A solo engine so allocates its
  // arena once. Also the source of DebugFinalStates.
  std::unique_ptr<graphplane::GraphPlane> plane_;
  bool last_run_one_lane_ = false;
};

std::vector<int64_t> ArenaCleartextBackend::Execute(
    const std::vector<std::vector<mpc::BitVector>>& lanes, core::RunMetrics* metrics) {
  const int total_lanes = static_cast<int>(lanes.size());
  DSTRESS_CHECK(total_lanes > 0);
  const int n = graph_.num_vertices();

  core::RunMetrics local;
  core::RunMetrics* m = metrics != nullptr ? metrics : &local;
  *m = core::RunMetrics{};
  m->update_and_gates = update_circuit_.stats().num_and;
  m->update_and_depth = update_circuit_.stats().and_depth;

  Stopwatch total;
  uint64_t bytes_before = net_->TotalBytes();

  int iterations_run = 0;
  std::vector<int64_t> results(static_cast<size_t>(total_lanes), 0);
  // Chunks of up to 64 lanes, one plane pass each.
  for (int first = 0; first < total_lanes; first += 64) {
    const int num_scenarios = std::min(64, total_lanes - first);

    Stopwatch phase;
    uint64_t phase_bytes = net_->TotalBytes();
    if (plane_ == nullptr || plane_->num_scenarios() != num_scenarios) {
      int stride = 1;
      while (stride < num_scenarios) {
        stride <<= 1;
      }
      graphplane::GraphPlane::Options options;
      options.num_scenarios = num_scenarios;
      options.stride = stride;
      options.edge_session_base = kEdgeSession;
      plane_.reset();  // release the old arena before allocating the new one
      plane_ = std::make_unique<graphplane::GraphPlane>(graph_, program_, update_plan_,
                                                        pool_.get(), net_.get(), options);
    }
    plane_->Reset();
    plane_->PackStates(lanes, static_cast<size_t>(first));
    m->init.seconds += phase.ElapsedSeconds();
    m->init.bytes += net_->TotalBytes() - phase_bytes;
    phase_bytes = net_->TotalBytes();

    for (int iter = 0; iter < program_.iterations; iter++) {
      phase.Reset();
      plane_->ComputeStep();
      m->compute.seconds += phase.ElapsedSeconds();
      m->compute.bytes += net_->TotalBytes() - phase_bytes;
      phase_bytes = net_->TotalBytes();

      phase.Reset();
      plane_->CommunicateStep();
      m->communicate.seconds += phase.ElapsedSeconds();
      m->communicate.bytes += net_->TotalBytes() - phase_bytes;
      phase_bytes = net_->TotalBytes();

      if (early_exit_ && plane_->AllConverged()) {
        // Every remaining (compute, communicate) round is a figure-identical
        // no-op; only the traffic shape changes, which is what the opt-in
        // acknowledges.
        break;
      }
    }
    // Final computation step, as in the secure schedule (§3.6).
    phase.Reset();
    plane_->ComputeStep();
    m->compute.seconds += phase.ElapsedSeconds();
    m->compute.bytes += net_->TotalBytes() - phase_bytes;
    phase_bytes = net_->TotalBytes();

    phase.Reset();
    Aggregate(*plane_, num_scenarios, &results[static_cast<size_t>(first)]);
    m->aggregate_and_gates +=
        contribution_circuit_.stats().num_and * static_cast<size_t>(n) * num_scenarios +
        noise_circuit_->stats().num_and;
    m->aggregate.seconds += phase.ElapsedSeconds();
    m->aggregate.bytes += net_->TotalBytes() - phase_bytes;
    iterations_run = std::max(iterations_run, static_cast<int>(plane_->stats().iterations));
  }
  last_run_one_lane_ = total_lanes == 1;

  m->iterations = iterations_run;
  m->total_seconds = total.ElapsedSeconds();
  m->total_bytes = net_->TotalBytes() - bytes_before;
  m->avg_bytes_per_node = static_cast<double>(m->total_bytes) / n;
  return results;
}

}  // namespace

std::unique_ptr<ExecutionBackend> MakeArenaCleartextBackend(const BackendContext& context) {
  return std::make_unique<ArenaCleartextBackend>(context);
}

}  // namespace dstress::engine
