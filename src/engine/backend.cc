#include "src/engine/backend.h"

#include <map>
#include <mutex>

#include "src/common/check.h"
#include "src/engine/cleartext_backend.h"
#include "src/engine/secure_backend.h"

namespace dstress::engine {

namespace {

// Overrides installed with RegisterExecutionMode. Built-ins are dispatched
// directly (not via static self-registration, which a static-library link
// would silently drop), so a mode with no override always resolves.
std::mutex registry_mu;
std::map<ExecutionMode, ExecutionBackendFactory>& Registry() {
  static auto* registry = new std::map<ExecutionMode, ExecutionBackendFactory>();
  return *registry;
}

std::unique_ptr<ExecutionBackend> MakeBuiltin(ExecutionMode mode, const BackendContext& context) {
  switch (mode) {
    case ExecutionMode::kSecure:
      return MakeSecureBackend(context);
    case ExecutionMode::kCleartextFast:
      return MakeArenaCleartextBackend(context);
  }
  DSTRESS_CHECK(false);
  return nullptr;
}

}  // namespace

std::vector<int64_t> ExecutionBackend::ExecuteEnsemble(
    const std::vector<std::vector<mpc::BitVector>>& per_scenario_states,
    core::RunMetrics* metrics) {
  std::vector<int64_t> released;
  released.reserve(per_scenario_states.size());
  core::RunMetrics total;
  for (const auto& states : per_scenario_states) {
    core::RunMetrics m;
    released.push_back(Execute(states, &m));
    total.init.seconds += m.init.seconds;
    total.init.bytes += m.init.bytes;
    total.compute.seconds += m.compute.seconds;
    total.compute.bytes += m.compute.bytes;
    total.communicate.seconds += m.communicate.seconds;
    total.communicate.bytes += m.communicate.bytes;
    total.aggregate.seconds += m.aggregate.seconds;
    total.aggregate.bytes += m.aggregate.bytes;
    total.total_seconds += m.total_seconds;
    total.total_bytes += m.total_bytes;
    total.avg_bytes_per_node += m.avg_bytes_per_node;
    total.triples_consumed += m.triples_consumed;
    total.update_and_gates = m.update_and_gates;
    total.update_and_depth = m.update_and_depth;
    total.update_rounds += m.update_rounds;
    total.aggregate_and_gates += m.aggregate_and_gates;
    total.iterations = m.iterations;
  }
  if (metrics != nullptr) {
    *metrics = total;
  }
  return released;
}

void RegisterExecutionMode(ExecutionMode mode, ExecutionBackendFactory factory) {
  DSTRESS_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lock(registry_mu);
  Registry()[mode] = std::move(factory);
}

void ResetExecutionMode(ExecutionMode mode) {
  std::lock_guard<std::mutex> lock(registry_mu);
  Registry().erase(mode);
}

std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ExecutionMode mode,
                                                       const BackendContext& context) {
  ExecutionBackendFactory factory;
  {
    std::lock_guard<std::mutex> lock(registry_mu);
    auto it = Registry().find(mode);
    if (it != Registry().end()) {
      factory = it->second;
    }
  }
  if (factory) {
    return factory(context);
  }
  return MakeBuiltin(mode, context);
}

}  // namespace dstress::engine
