// ExecutionBackend — the seam between the declarative engine API and the
// machinery that actually runs a stress test.
//
// The engine compiles a RunSpec down to (graph, vertex program, runtime
// config, initial states) and hands the first three to a backend factory
// looked up by ExecutionMode in a process-wide registry. Two backends are
// built in:
//
//   kSecure        — secure_backend.h: wraps core::Runtime, i.e. the full
//                    GMW + OT + §3.5-transfer protocol stack.
//   kCleartextFast — cleartext_backend.h: same circuits, same transport and
//                    scheduler layers, no cryptography.
//
// RegisterExecutionMode lets deployments override a mode's factory (e.g. a
// test double) without any caller changing: every entry point goes through
// engine::Engine, and the engine goes through this registry. The wire a
// mode runs over is chosen separately by RunSpec::transport through the
// parallel transport registry (src/net/transport_spec.h) — both built-in
// backends resolve their transport from the spec, never by type name.
#ifndef SRC_ENGINE_BACKEND_H_
#define SRC_ENGINE_BACKEND_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/core/runtime.h"
#include "src/engine/run_spec.h"
#include "src/net/transport.h"

namespace dstress::engine {

// Everything a backend may depend on. The pointed-to objects are owned by
// the Engine and outlive the backend.
struct BackendContext {
  const RunSpec* spec = nullptr;
  const graph::Graph* graph = nullptr;
  const core::VertexProgram* program = nullptr;
  // Schedule knobs, already derived from the spec (block size, fanout,
  // triple source, seed, transfer parameters).
  core::RuntimeConfig runtime_config;
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;

  // Runs the program once on `initial_states` (one state per vertex) and
  // returns the released aggregate. Reusable: each call is an independent
  // run. `metrics` may be nullptr.
  virtual int64_t Execute(const std::vector<mpc::BitVector>& initial_states,
                          core::RunMetrics* metrics) = 0;

  // Ensemble plane: one run per element of `per_scenario_states` (scenario
  // s's state for vertex v at per_scenario_states[s][v]), returning one
  // released aggregate per scenario. The built-in backends pack scenarios
  // into the lanes of the batched data planes so the whole ensemble costs
  // one lockstep pass. Scenario s's figure must equal a solo Execute of its
  // states.
  virtual std::vector<int64_t> ExecuteEnsemble(
      const std::vector<std::vector<mpc::BitVector>>& per_scenario_states,
      core::RunMetrics* metrics) = 0;

  // Final per-vertex states of the last solo Execute, for fidelity testing
  // (tests/graphplane_test.cc digests them). Optional: backends without a
  // cleartext state image return empty, and the result is unspecified
  // before the first Execute or after ExecuteEnsemble.
  virtual std::vector<mpc::BitVector> DebugFinalStates() const { return {}; }

  // Attaches a transport observer (audit layer); must happen before the
  // first Execute, see net::Transport::SetObserver.
  virtual void AttachObserver(net::NetworkObserver* observer) = 0;

  // The transport the run's traffic crosses (for traffic accounting).
  virtual const net::Transport& transport() const = 0;
};

using ExecutionBackendFactory =
    std::function<std::unique_ptr<ExecutionBackend>(const BackendContext& context)>;

// Replaces the factory for `mode` process-wide. Thread-safe.
void RegisterExecutionMode(ExecutionMode mode, ExecutionBackendFactory factory);

// Restores the built-in factory for `mode`.
void ResetExecutionMode(ExecutionMode mode);

// Instantiates the backend currently registered for `mode`.
std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ExecutionMode mode,
                                                       const BackendContext& context);

}  // namespace dstress::engine

#endif  // SRC_ENGINE_BACKEND_H_
