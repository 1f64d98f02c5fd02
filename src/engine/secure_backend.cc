#include "src/engine/secure_backend.h"

namespace dstress::engine {

namespace {

class SecureBackend : public ExecutionBackend {
 public:
  explicit SecureBackend(const BackendContext& context)
      : runtime_(context.runtime_config, *context.graph, *context.program) {}

  const char* name() const override { return ExecutionModeName(ExecutionMode::kSecure); }

  std::vector<int64_t> Execute(const std::vector<std::vector<mpc::BitVector>>& lanes,
                               core::RunMetrics* metrics) override {
    return runtime_.RunEnsemble(lanes, metrics);
  }

  void AttachObserver(net::NetworkObserver* observer) override {
    runtime_.AttachObserver(observer);
  }

  const net::Transport& transport() const override { return runtime_.network(); }

 private:
  core::Runtime runtime_;
};

}  // namespace

std::unique_ptr<ExecutionBackend> MakeSecureBackend(const BackendContext& context) {
  return std::make_unique<SecureBackend>(context);
}

}  // namespace dstress::engine
