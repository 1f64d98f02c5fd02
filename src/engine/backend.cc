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
