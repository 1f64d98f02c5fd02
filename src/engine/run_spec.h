// engine::RunSpec — the declarative description of one DStress stress test,
// and the only input the public execution API (engine.h) takes.
//
// A spec names *what* to run — the network (a topology spec or a prebuilt
// graph), the contagion model (Eisenberg–Noe, Elliott–Golub–Jackson, or a
// custom vertex program), the privacy parameters, and the shock set — plus
// the schedule knobs (iterations, block size, aggregation fan-out, triple
// source) and the ExecutionMode that selects *how* it runs:
//
//   kSecure        — the full protocol stack: GMW updates over secret
//                    shares, OT-extension triples, §3.5 encrypted edge
//                    transfers, in-MPC noising. Traffic and results are
//                    bit-identical to driving core::Runtime directly.
//   kCleartextFast — skips the cryptography but keeps the vertex-program
//                    semantics (the same boolean circuits, evaluated in
//                    cleartext), the message shapes, and the transport +
//                    scheduler layers. Used for scenario sweeps at N in the
//                    tens of thousands, where the secure mode's MPC cost is
//                    prohibitive.
//
// Callers build a RunSpec, hand it to engine::Engine, and get an
// engine::RunReport back; no caller assembles SimNetwork / TrustedSetup /
// RuntimeConfig / vertex-program wiring by hand anymore.
#ifndef SRC_ENGINE_RUN_SPEC_H_
#define SRC_ENGINE_RUN_SPEC_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/vertex_program.h"
#include "src/ensemble/spec.h"
#include "src/finance/fixed_point.h"
#include "src/finance/workload.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/mpc/sharing.h"
#include "src/net/transport_spec.h"

namespace dstress::engine {

// Execution backends. MakeExecutionBackend (backend.h) builds the backend
// for each mode; a new mode is one more case there, and no RunSpec caller
// changes. (The wire a run crosses is orthogonal: RunSpec::transport.)
enum class ExecutionMode {
  kSecure,
  kCleartextFast,
};

// Stable names used by the scenario-file `mode` directive and reports.
const char* ExecutionModeName(ExecutionMode mode);
std::optional<ExecutionMode> ExecutionModeFromName(const std::string& name);

enum class ContagionModel {
  kEisenbergNoe,
  kElliottGolubJackson,
  // Caller-supplied vertex program (RunSpec::custom_program / custom_states).
  kCustom,
};

// Synthetic-network description, materialized deterministically from the
// run seed. Ignored when RunSpec::graph holds a prebuilt network.
struct TopologySpec {
  enum class Kind {
    kCorePeriphery,
    kScaleFree,
    kErdosRenyi,
    kExplicit,
  };
  Kind kind = Kind::kCorePeriphery;

  // Shared by every kind.
  int num_vertices = 0;

  // kind == kCorePeriphery (defaults mirror graph::CorePeripheryParams).
  int core_size = 10;
  double core_density = 0.9;
  int max_core_links = 2;

  int links_per_vertex = 2;       // scale_free
  double edge_probability = 0.1;  // erdos_renyi
  std::vector<std::pair<int, int>> edges;  // explicit (directed)

  // If > 0, the generated graph is degree-capped (graph::CapDegree) so a
  // public degree bound D < MaxDegree can be enforced.
  int degree_cap = 0;
};

TopologySpec CorePeripheryTopology(int num_vertices, int core_size);
TopologySpec ScaleFreeTopology(int num_vertices, int links_per_vertex);
TopologySpec ExplicitTopology(int num_vertices, std::vector<std::pair<int, int>> edges);

// Materializes a topology spec (deterministic in `seed`).
graph::Graph BuildTopologyGraph(const TopologySpec& topology, uint64_t seed);

// Appendix C iteration rule: I = ceil(log2 N) suffices on two-tier
// networks. Used whenever RunSpec::iterations is 0.
int AutoIterations(int num_vertices);

struct RunSpec;

// The workload parameters a spec implies: spec.workload when set, otherwise
// defaults derived from format/seed/topology. Public so the ensemble layer
// can materialize per-scenario workloads consistent with solo runs.
finance::WorkloadParams DeriveWorkloadParams(const RunSpec& spec);

struct RunSpec {
  // --- the network -------------------------------------------------------
  // A prebuilt graph wins over the topology spec.
  std::optional<graph::Graph> graph;
  TopologySpec topology;

  // --- the computation ---------------------------------------------------
  ContagionModel model = ContagionModel::kEisenbergNoe;

  // Finance-model knobs (kEisenbergNoe / kElliottGolubJackson).
  finance::FixedPointFormat format;
  int aggregate_bits = 32;
  // §4.5 output privacy: the geometric-noise alpha is derived from
  // epsilon and the leverage-bound sensitivity (1/r for EN, 2/r for EGJ)
  // unless noise_alpha > 0 overrides it directly.
  double epsilon = 0.23;
  double leverage = 0.1;
  double noise_alpha = 0;
  // Balance sheets: when unset, the engine derives defaults from the spec
  // (format, seed, core size of a core-periphery topology).
  std::optional<finance::WorkloadParams> workload;
  finance::ShockParams shock;

  // Scenario ensemble (src/ensemble): when set, Engine::RunEnsemble packs
  // one scenario per lane of the batched planes and returns an
  // ensemble::EnsembleReport instead of a single figure. The base spec's
  // shock is the template the generator varies. EN/EGJ models only.
  std::optional<ensemble::EnsembleSpec> ensemble;

  // Custom vertex program (model == kCustom): the program is used as given
  // (its own iterations/noise), custom_states holds one initial state per
  // vertex.
  core::VertexProgram custom_program;
  std::vector<mpc::BitVector> custom_states;

  // Public degree bound D; 0 = the materialized graph's max degree.
  int degree_bound = 0;

  // --- schedule knobs ----------------------------------------------------
  int iterations = 0;  // 0 = AutoIterations(N)
  int block_size = 4;  // k+1
  int aggregation_fanout = 0;  // 0 = single aggregation block
  // IKNP OT-extension triples through the node-pair triple factory
  // (docs/offline-phase.md) instead of dealer triples.
  bool use_ot_triples = false;
  // Opt-in early exit for the arena plane: stop iterating once every
  // vertex lane has converged (the remaining iterations are provably
  // figure-identical no-ops). Off by default because it changes the
  // traffic shape — fewer communicate rounds are metered.
  bool cleartext_early_exit = false;
  int max_parallel_tasks = 0;  // 0 = auto
  double transfer_budget_alpha = 0.9;
  int64_t dlog_range = 0;  // 0 = auto-size
  uint64_t seed = 1;
  // HA checkpointing (core::RuntimeConfig, docs/ha.md): snapshot phase
  // state to ha_checkpoint_path every `ha_checkpoint_every` iterations;
  // ha_resume restarts a run from that snapshot (dstress_run --resume).
  // Secure mode only, for solo runs and ensembles alike; the cleartext
  // backend aborts on either.
  int ha_checkpoint_every = 0;
  std::string ha_checkpoint_path;
  bool ha_resume = false;

  // --- execution backend -------------------------------------------------
  ExecutionMode mode = ExecutionMode::kSecure;
  // Which wire the run crosses, resolved through the transport registry
  // (net/transport_spec.h): "sim" (in-process, default) or "tcp" (one
  // process per bank). Orthogonal to `mode`: the same mode runs over any
  // transport with identical results and per-node traffic stats.
  // transport.options (net::TransportOptions) holds the per-channel
  // queued-byte cap.
  net::TransportSpec transport;
};

// Everything a run produces: the released (noised) figure, the cleartext
// fixed-point reference when the model has one, and the execution metrics.
struct RunReport {
  int64_t released = 0;
  // Cleartext fixed-point reference result (EN/EGJ only). Never released in
  // a real deployment — computing it needs all the books.
  bool has_reference = false;
  uint64_t reference = 0;

  core::RunMetrics metrics;
  int iterations = 0;
  std::string model_name;
  ExecutionMode mode = ExecutionMode::kSecure;

  // One-line summary (wraps RunMetrics::ToString with the released figure).
  std::string ToString() const;
};

// Multi-line human-readable report (the regulator-facing output of
// examples/dstress_run).
std::string FormatReport(const RunSpec& spec, const RunReport& report);

// The "phases:" line of a report, solo and ensemble alike: seconds spent
// in the run's init, compute (GMW or the graph plane's step), communicate
// (edge transfers) and aggregate phases, so a report attributes its wall
// time without a profiler.
std::string FormatPhaseLine(const core::RunMetrics& metrics);

// The HA lines that end a report (docs/ha.md), solo and ensemble alike:
// "ha overhead:" when the transport's fault-tolerance layer was on or the
// run resumed from a checkpoint, then "resumed: from iteration N" when it
// resumed. Empty otherwise, so non-HA reports are unchanged.
std::string FormatHaLines(const RunSpec& spec, const core::RunMetrics& metrics);

}  // namespace dstress::engine

#endif  // SRC_ENGINE_RUN_SPEC_H_
