#include "src/engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/common/check.h"
#include "src/dp/release.h"
#include "src/engine/backend.h"
#include "src/ha/faulty.h"
#include "src/finance/eisenberg_noe.h"
#include "src/finance/elliott_golub_jackson.h"
#include "src/finance/utility.h"

namespace dstress::engine {

namespace {

core::RuntimeConfig DeriveRuntimeConfig(const RunSpec& spec) {
  core::RuntimeConfig config;
  config.block_size = spec.block_size;
  config.transfer_budget_alpha = spec.transfer_budget_alpha;
  config.dlog_range = spec.dlog_range;
  config.use_ot_triples = spec.use_ot_triples;
  config.aggregation_fanout = spec.aggregation_fanout;
  config.max_parallel_tasks = spec.max_parallel_tasks;
  config.channel_high_watermark_bytes = spec.channel_high_watermark_bytes;
  config.transport = spec.transport;
  config.seed = spec.seed;
  config.checkpoint_every = spec.ha_checkpoint_every;
  config.checkpoint_path = spec.ha_checkpoint_path;
  config.resume = spec.ha_resume;
  if (spec.ensemble.has_value()) {
    config.ensemble_width = std::max(1, spec.ensemble->Width());
  }
  return config;
}

double DeriveNoiseAlpha(const RunSpec& spec) {
  if (spec.noise_alpha > 0) {
    return spec.noise_alpha;
  }
  double sensitivity = spec.model == ContagionModel::kEisenbergNoe
                           ? finance::EnSensitivity(spec.leverage)
                           : finance::EgjSensitivity(spec.leverage);
  return finance::NoiseAlphaForRelease(sensitivity, spec.epsilon, /*unit_dollars=*/1.0);
}

}  // namespace

Engine::Engine(RunSpec spec) : spec_(std::move(spec)) {
  // Make the "faulty" fault-injection backend resolvable by name before any
  // transport spec is materialized (the registry is the only way scenarios
  // reach it; explicit because static-lib self-registration gets dropped).
  ha::RegisterHaTransports();
  if (spec_.graph.has_value()) {
    graph_ = &*spec_.graph;
  } else {
    built_graph_.emplace(BuildTopologyGraph(spec_.topology, spec_.seed));
    graph_ = &*built_graph_;
  }
  const int n = graph_->num_vertices();
  DSTRESS_CHECK(n > 0);
  const int degree_bound =
      spec_.degree_bound > 0 ? spec_.degree_bound : std::max(1, graph_->MaxDegree());

  switch (spec_.model) {
    case ContagionModel::kEisenbergNoe: {
      model_name_ = "Eisenberg-Noe";
      iterations_ = spec_.iterations > 0 ? spec_.iterations : AutoIterations(n);
      finance::EnProgramParams params;
      params.format = spec_.format;
      params.degree_bound = degree_bound;
      params.iterations = iterations_;
      params.aggregate_bits = spec_.aggregate_bits;
      params.noise_alpha = DeriveNoiseAlpha(spec_);
      finance::EnInstance instance =
          finance::MakeEnWorkload(*graph_, DeriveWorkloadParams(spec_), spec_.shock);
      program_ = finance::MakeEnProgram(params);
      initial_states_ = finance::MakeEnInitialStates(instance, params);
      reference_ = finance::EnSolveFixed(instance, params);
      has_reference_ = true;
      break;
    }
    case ContagionModel::kElliottGolubJackson: {
      model_name_ = "Elliott-Golub-Jackson";
      iterations_ = spec_.iterations > 0 ? spec_.iterations : AutoIterations(n);
      finance::EgjProgramParams params;
      params.format = spec_.format;
      params.degree_bound = degree_bound;
      params.iterations = iterations_;
      params.aggregate_bits = spec_.aggregate_bits;
      params.noise_alpha = DeriveNoiseAlpha(spec_);
      finance::EgjInstance instance =
          finance::MakeEgjWorkload(*graph_, DeriveWorkloadParams(spec_), spec_.shock);
      program_ = finance::MakeEgjProgram(params);
      initial_states_ = finance::MakeEgjInitialStates(instance, params);
      reference_ = finance::EgjSolveFixed(instance, params);
      has_reference_ = true;
      break;
    }
    case ContagionModel::kCustom: {
      model_name_ = "custom";
      DSTRESS_CHECK(spec_.custom_program.build_update != nullptr);
      DSTRESS_CHECK(spec_.custom_program.build_contribution != nullptr);
      program_ = spec_.custom_program;
      if (spec_.iterations > 0) {
        program_.iterations = spec_.iterations;
      }
      iterations_ = program_.iterations;
      DSTRESS_CHECK(static_cast<int>(spec_.custom_states.size()) == n);
      initial_states_ = spec_.custom_states;
      break;
    }
  }

  if (spec_.ensemble.has_value()) {
    // An ensemble varies shocks and balance sheets; a custom program has
    // neither channel to vary.
    DSTRESS_CHECK(spec_.model != ContagionModel::kCustom);
    CompileEnsemble(degree_bound);
  }

  BackendContext context;
  context.spec = &spec_;
  context.graph = graph_;
  context.program = &program_;
  context.runtime_config = DeriveRuntimeConfig(spec_);
  backend_ = MakeExecutionBackend(spec_.mode, context);
}

void Engine::CompileEnsemble(int degree_bound) {
  const ensemble::EnsembleSpec& es = *spec_.ensemble;
  scenarios_ = ensemble::MaterializeScenarios(es, spec_.shock, graph_->num_vertices());
  DSTRESS_CHECK(!scenarios_.empty());
  const finance::WorkloadParams base_workload = DeriveWorkloadParams(spec_);
  ensemble_states_.reserve(scenarios_.size());
  ensemble_refs_.reserve(scenarios_.size());
  ensemble_defaults_.reserve(scenarios_.size());
  const int n = graph_->num_vertices();
  if (spec_.model == ContagionModel::kEisenbergNoe) {
    finance::EnProgramParams params;
    params.format = spec_.format;
    params.degree_bound = degree_bound;
    params.iterations = iterations_;
    params.aggregate_bits = spec_.aggregate_bits;
    params.noise_alpha = DeriveNoiseAlpha(spec_);
    // One base workload per distinct seed; per-scenario shocks stamp onto a
    // copy (all RNG draws precede the shock, so this equals regenerating).
    const finance::EnInstance base =
        finance::MakeEnWorkload(*graph_, base_workload, finance::ShockParams{});
    for (const ensemble::Scenario& sc : scenarios_) {
      finance::EnInstance instance;
      if (sc.workload_seed.has_value()) {
        finance::WorkloadParams workload = base_workload;
        workload.seed = *sc.workload_seed;
        instance = finance::MakeEnWorkload(*graph_, workload, sc.shock);
      } else {
        instance = base;
        finance::ApplyEnShock(instance, sc.shock);
      }
      ensemble_states_.push_back(finance::MakeEnInitialStates(instance, params));
      std::vector<uint64_t> prorate;
      ensemble_refs_.push_back(finance::EnSolveFixed(instance, params, &prorate));
      std::vector<uint8_t> defaults(n);
      for (int v = 0; v < n; v++) {
        defaults[v] = prorate[v] < spec_.format.One() ? 1 : 0;
      }
      ensemble_defaults_.push_back(std::move(defaults));
    }
  } else {
    finance::EgjProgramParams params;
    params.format = spec_.format;
    params.degree_bound = degree_bound;
    params.iterations = iterations_;
    params.aggregate_bits = spec_.aggregate_bits;
    params.noise_alpha = DeriveNoiseAlpha(spec_);
    const finance::EgjInstance base =
        finance::MakeEgjWorkload(*graph_, base_workload, finance::ShockParams{});
    for (const ensemble::Scenario& sc : scenarios_) {
      finance::EgjInstance instance;
      if (sc.workload_seed.has_value()) {
        finance::WorkloadParams workload = base_workload;
        workload.seed = *sc.workload_seed;
        instance = finance::MakeEgjWorkload(*graph_, workload, sc.shock);
      } else {
        instance = base;
        finance::ApplyEgjShock(instance, sc.shock);
      }
      ensemble_states_.push_back(finance::MakeEgjInitialStates(instance, params));
      std::vector<uint64_t> values;
      ensemble_refs_.push_back(finance::EgjSolveFixed(instance, params, &values));
      std::vector<uint8_t> defaults(n);
      for (int v = 0; v < n; v++) {
        defaults[v] = values[v] < instance.threshold[v] ? 1 : 0;
      }
      ensemble_defaults_.push_back(std::move(defaults));
    }
  }
}

Engine::~Engine() = default;

RunReport Engine::Run() {
  RunReport report;
  report.iterations = iterations_;
  report.model_name = model_name_;
  report.mode = spec_.mode;
  report.has_reference = has_reference_;
  report.reference = reference_;
  report.released = backend_->Execute(initial_states_, &report.metrics);
  return report;
}

ensemble::EnsembleReport Engine::RunEnsemble() {
  DSTRESS_CHECK(spec_.ensemble.has_value());
  const ensemble::EnsembleSpec& es = *spec_.ensemble;
  const int k = static_cast<int>(scenarios_.size());
  if (es.epsilon_budget > 0) {
    // Ensemble-aware accounting: every lane is a release at spec epsilon,
    // so the whole ensemble must fit the cap before anything is computed —
    // a data-dependent partial refusal would itself leak (dp/release.h).
    dp::ReleaseManager manager(es.epsilon_budget, spec_.seed);
    std::string error;
    if (!manager.ChargeEnsemble(model_name_, k, spec_.epsilon, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      std::abort();
    }
  }
  ensemble::EnsembleReport report;
  report.iterations = iterations_;
  report.model_name = model_name_;
  report.mode = spec_.mode;
  report.epsilon_each = spec_.epsilon;
  report.epsilon_total = static_cast<double>(k) * spec_.epsilon;
  report.epsilon_budget = es.epsilon_budget;
  std::vector<int64_t> released = backend_->ExecuteEnsemble(ensemble_states_, &report.metrics);
  DSTRESS_CHECK(released.size() == scenarios_.size());
  report.scenarios.reserve(scenarios_.size());
  for (size_t s = 0; s < scenarios_.size(); s++) {
    ensemble::ScenarioResult result;
    result.label = scenarios_[s].label;
    result.released = released[s];
    result.has_reference = true;
    result.reference = ensemble_refs_[s];
    report.scenarios.push_back(std::move(result));
  }
  ensemble::ReduceEnsemble(ensemble_defaults_, &report);
  return report;
}

void Engine::AttachObserver(net::NetworkObserver* observer) {
  backend_->AttachObserver(observer);
}

std::vector<mpc::BitVector> Engine::FinalStates() const { return backend_->DebugFinalStates(); }

const net::Transport& Engine::transport() const { return backend_->transport(); }

}  // namespace dstress::engine
