// engine::Engine — the public way to execute a DStress stress test.
//
// The engine closes the four-layer architecture (see ROADMAP.md):
//
//   transport (src/net)  — metered message passing
//   protocol  (src/mpc, src/ot, src/transfer)  — GMW / OT / §3.5 transfers
//   scheduler (src/core) — worker-pool phase execution
//   engine    (this dir) — declarative RunSpec in, RunReport out
//
// Construction compiles the spec: the network is materialized (topology
// spec or prebuilt graph), the contagion model is lowered to a vertex
// program with privacy-calibrated output noise, and the base run and every
// ensemble scenario are compiled as lanes of one loop — initial states and
// cleartext reference from the synthetic workload. MakeExecutionBackend
// supplies the backend (secure MPC or the cleartext fast path), which runs
// lists of lanes: Run() hands it the base run as a one-lane list and
// returns the released figure plus metrics; RunEnsemble() hands it the
// ensemble's lanes.
//
//   engine::RunSpec spec;
//   spec.topology = engine::CorePeripheryTopology(50, 10);
//   spec.shock.shocked_banks = {0, 1};
//   engine::RunReport report = engine::Engine(spec).Run();
#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/engine/run_spec.h"
#include "src/ensemble/ensemble.h"
#include "src/net/transport.h"

namespace dstress::engine {

class ExecutionBackend;

class Engine {
 public:
  // Compiles the spec and instantiates its execution backend. Aborts (via
  // DSTRESS_CHECK) on an inconsistent spec — scenario-file input is
  // validated upstream by the parser.
  explicit Engine(RunSpec spec);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Executes the stress test once. Reusable: each call is an independent
  // run over the same compiled spec. With spec.ensemble set this runs the
  // *base* scenario only; use RunEnsemble for the ensemble.
  RunReport Run();

  // Executes every scenario of spec.ensemble in one lockstep pass (one lane
  // per scenario in the batched data planes) and reduces the per-lane
  // figures into a distributional report. Charges the composed epsilon
  // against spec.ensemble->epsilon_budget first and aborts — naming the
  // overrun — if the ensemble does not fit. Requires spec.ensemble.
  ensemble::EnsembleReport RunEnsemble();

  // Attaches a transport observer (e.g. audit::TranscriptRecorder; nullptr
  // detaches). Must be called before the first Run().
  void AttachObserver(net::NetworkObserver* observer);

  // Final per-vertex states of the last run when it had one lane (Run(),
  // or a one-scenario RunEnsemble()) and the backend exposes them
  // (ExecutionBackend::DebugFinalStates; the cleartext backend does).
  // Empty otherwise. Differential-testing hook, not part of the release
  // surface.
  std::vector<mpc::BitVector> FinalStates() const;

  // The materialized network and compiled program.
  const graph::Graph& graph() const { return *graph_; }
  const core::VertexProgram& program() const { return program_; }
  int iterations() const { return iterations_; }
  const RunSpec& spec() const { return spec_; }

  // The transport the run's traffic crosses (per-node traffic accounting).
  const net::Transport& transport() const;

 private:
  RunSpec spec_;
  // Points at spec_.graph when the caller supplied a prebuilt network (no
  // second copy is kept), or at built_graph_ materialized from the
  // topology spec.
  std::optional<graph::Graph> built_graph_;
  const graph::Graph* graph_ = nullptr;
  core::VertexProgram program_;
  std::string model_name_;
  int iterations_ = 0;
  std::unique_ptr<ExecutionBackend> backend_;

  // The base run as a one-lane list (Run) and its cleartext reference.
  std::vector<std::vector<mpc::BitVector>> base_lane_;
  bool has_reference_ = false;
  uint64_t reference_ = 0;
  // The ensemble (spec_.ensemble, RunEnsemble): the materialized scenarios,
  // one lane of initial states per scenario, and the cleartext reference
  // channel (per-scenario reference TDS + per-bank default indicators).
  std::vector<ensemble::Scenario> scenarios_;
  std::vector<std::vector<mpc::BitVector>> ensemble_lanes_;
  std::vector<uint64_t> ensemble_refs_;
  std::vector<std::vector<uint8_t>> ensemble_defaults_;
};

}  // namespace dstress::engine

#endif  // SRC_ENGINE_ENGINE_H_
