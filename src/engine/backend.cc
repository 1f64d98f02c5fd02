#include "src/engine/backend.h"

#include "src/common/check.h"
#include "src/engine/cleartext_backend.h"
#include "src/engine/secure_backend.h"

namespace dstress::engine {

std::unique_ptr<ExecutionBackend> MakeExecutionBackend(ExecutionMode mode,
                                                       const BackendContext& context) {
  switch (mode) {
    case ExecutionMode::kSecure:
      return MakeSecureBackend(context);
    case ExecutionMode::kCleartextFast:
      return MakeArenaCleartextBackend(context);
  }
  DSTRESS_CHECK(false);
  return nullptr;
}

}  // namespace dstress::engine
