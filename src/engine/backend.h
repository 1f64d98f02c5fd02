// ExecutionBackend — the seam between the declarative engine API and the
// machinery that actually runs a stress test.
//
// The engine compiles a RunSpec down to (graph, vertex program, runtime
// config, initial states) and hands the first three to the backend that
// MakeExecutionBackend builds for its ExecutionMode. Two backends exist:
//
//   kSecure        — secure_backend.h: wraps core::Runtime, i.e. the full
//                    GMW + OT + §3.5-transfer protocol stack.
//   kCleartextFast — cleartext_backend.h: same circuits, same transport and
//                    scheduler layers, no cryptography.
//
// Every entry point goes through engine::Engine, and the engine goes
// through this seam. The wire a mode runs over is chosen separately by
// RunSpec::transport through the transport registry
// (src/net/transport_spec.h) — both backends resolve their transport from
// the spec, never by type name.
#ifndef SRC_ENGINE_BACKEND_H_
#define SRC_ENGINE_BACKEND_H_

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

  // Runs the program once per lane (lane s's state for vertex v at
  // lanes[s][v]) and returns one released aggregate per lane. A solo run is
  // the one-lane list. Both backends pack the lanes into the batched data
  // planes, so a list costs one lockstep pass; lane s's figure equals a
  // one-lane run of lanes[s]. Reusable: each call is an independent run.
  // `metrics` may be nullptr.
  virtual std::vector<int64_t> Execute(const std::vector<std::vector<mpc::BitVector>>& lanes,
                                       core::RunMetrics* metrics) = 0;

  // Final per-vertex states of the last one-lane Execute, for fidelity
  // testing (tests/graphplane_test.cc digests them). Optional: backends
  // without a cleartext state image return empty, and so does any backend
  // whose last Execute had more than one lane.
  virtual std::vector<mpc::BitVector> DebugFinalStates() const { return {}; }

  // Attaches a transport observer (audit layer); must happen before the
  // first Execute, see net::Transport::SetObserver.
  virtual void AttachObserver(net::NetworkObserver* observer) = 0;

  // The transport the run's traffic crosses (for traffic accounting).
  virtual const net::Transport& transport() const = 0;
};

// Builds the backend for `mode`.
std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ExecutionMode mode,
                                                       const BackendContext& context);

}  // namespace dstress::engine

#endif  // SRC_ENGINE_BACKEND_H_
