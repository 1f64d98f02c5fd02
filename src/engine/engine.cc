#include "src/engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
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

// What a finance model contributes to compilation: its entry points. The
// compile body (CompileLanes) is shared by both models.
template <typename Instance, typename Params>
struct FinanceModel {
  const char* name;
  core::VertexProgram (*make_program)(const Params&);
  Instance (*make_workload)(const graph::Graph&, const finance::WorkloadParams&,
                            const finance::ShockParams&);
  void (*apply_shock)(Instance&, const finance::ShockParams&);
  std::vector<mpc::BitVector> (*initial_states)(const Instance&, const Params&);
  // The fixed-point solve: the unnoised TDS, and one word per bank that
  // `defaulted` reads.
  uint64_t (*solve)(const Instance&, const Params&, std::vector<uint64_t>*);
  bool (*defaulted)(const Instance&, const finance::FixedPointFormat&,
                    const std::vector<uint64_t>& solved, int bank);
};

const FinanceModel<finance::EnInstance, finance::EnProgramParams> kEisenbergNoe = {
    "Eisenberg-Noe", finance::MakeEnProgram, finance::MakeEnWorkload, finance::ApplyEnShock,
    finance::MakeEnInitialStates, finance::EnSolveFixed,
    // A bank defaults when it pays less than its full debt.
    [](const finance::EnInstance&, const finance::FixedPointFormat& format,
       const std::vector<uint64_t>& prorate, int bank) {
      return prorate[static_cast<size_t>(bank)] < format.One();
    }};

const FinanceModel<finance::EgjInstance, finance::EgjProgramParams> kElliottGolubJackson = {
    "Elliott-Golub-Jackson", finance::MakeEgjProgram, finance::MakeEgjWorkload,
    finance::ApplyEgjShock, finance::MakeEgjInitialStates, finance::EgjSolveFixed,
    // A bank fails when its valuation ends below its failure threshold.
    [](const finance::EgjInstance& instance, const finance::FixedPointFormat&,
       const std::vector<uint64_t>& values, int bank) {
      const size_t v = static_cast<size_t>(bank);
      return values[v] < instance.threshold[v];
    }};

// A compiled finance model: its vertex program and, per lane, the initial
// states, the cleartext reference and the per-bank default indicators.
struct CompiledLanes {
  const char* model_name = nullptr;
  core::VertexProgram program;
  std::vector<std::vector<mpc::BitVector>> states;
  std::vector<uint64_t> references;
  std::vector<std::vector<uint8_t>> defaults;
};

template <typename Instance, typename Params>
CompiledLanes CompileLanes(const FinanceModel<Instance, Params>& model, const RunSpec& spec,
                           const graph::Graph& graph, int degree_bound, int iterations,
                           const std::vector<ensemble::Scenario>& lanes) {
  Params params;
  params.format = spec.format;
  params.degree_bound = degree_bound;
  params.iterations = iterations;
  params.aggregate_bits = spec.aggregate_bits;
  params.noise_alpha = DeriveNoiseAlpha(spec);
  CompiledLanes out;
  out.model_name = model.name;
  out.program = model.make_program(params);
  const int n = graph.num_vertices();
  const finance::WorkloadParams workload = DeriveWorkloadParams(spec);
  // One unshocked base workload; every lane stamps its shock onto a copy
  // (all RNG draws precede the shock, so this equals regenerating). A lane
  // that perturbs the balance sheets regenerates them under its own seed.
  const Instance base = model.make_workload(graph, workload, finance::ShockParams{});
  for (const ensemble::Scenario& lane : lanes) {
    Instance instance;
    if (lane.workload_seed.has_value()) {
      finance::WorkloadParams reseeded = workload;
      reseeded.seed = *lane.workload_seed;
      instance = model.make_workload(graph, reseeded, finance::ShockParams{});
    } else {
      instance = base;
    }
    model.apply_shock(instance, lane.shock);
    out.states.push_back(model.initial_states(instance, params));
    std::vector<uint64_t> solved;
    out.references.push_back(model.solve(instance, params, &solved));
    std::vector<uint8_t> defaults(static_cast<size_t>(n));
    for (int v = 0; v < n; v++) {
      defaults[static_cast<size_t>(v)] = model.defaulted(instance, spec.format, solved, v) ? 1 : 0;
    }
    out.defaults.push_back(std::move(defaults));
  }
  return out;
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

  if (spec_.model == ContagionModel::kCustom) {
    // An ensemble varies shocks and balance sheets; a custom program has
    // neither channel to vary.
    DSTRESS_CHECK(!spec_.ensemble.has_value());
    model_name_ = "custom";
    DSTRESS_CHECK(spec_.custom_program.build_update != nullptr);
    DSTRESS_CHECK(spec_.custom_program.build_contribution != nullptr);
    program_ = spec_.custom_program;
    if (spec_.iterations > 0) {
      program_.iterations = spec_.iterations;
    }
    iterations_ = program_.iterations;
    DSTRESS_CHECK(static_cast<int>(spec_.custom_states.size()) == n);
    base_lane_.push_back(spec_.custom_states);
  } else {
    // The state builders write neighbor slots by index, and the backends
    // would reject the bound anyway: fail before compiling any lane.
    if (graph_->MaxDegree() > degree_bound) {
      std::fprintf(stderr, "engine: degree_bound %d is below the graph's maximum degree %d\n",
                   degree_bound, graph_->MaxDegree());
      std::abort();
    }
    iterations_ = spec_.iterations > 0 ? spec_.iterations : AutoIterations(n);
    if (spec_.ensemble.has_value()) {
      scenarios_ = ensemble::MaterializeScenarios(*spec_.ensemble, spec_.shock, n);
      DSTRESS_CHECK(!scenarios_.empty());
    }
    // Lane 0 is the base run (the spec's own shock); the ensemble's
    // scenarios follow it.
    std::vector<ensemble::Scenario> lanes(1);
    lanes[0].shock = spec_.shock;
    lanes.insert(lanes.end(), scenarios_.begin(), scenarios_.end());
    CompiledLanes compiled =
        spec_.model == ContagionModel::kEisenbergNoe
            ? CompileLanes(kEisenbergNoe, spec_, *graph_, degree_bound, iterations_, lanes)
            : CompileLanes(kElliottGolubJackson, spec_, *graph_, degree_bound, iterations_,
                           lanes);
    model_name_ = compiled.model_name;
    program_ = std::move(compiled.program);
    has_reference_ = true;
    reference_ = compiled.references[0];
    base_lane_.push_back(std::move(compiled.states[0]));
    ensemble_lanes_.assign(std::make_move_iterator(compiled.states.begin() + 1),
                           std::make_move_iterator(compiled.states.end()));
    ensemble_refs_.assign(compiled.references.begin() + 1, compiled.references.end());
    ensemble_defaults_.assign(std::make_move_iterator(compiled.defaults.begin() + 1),
                              std::make_move_iterator(compiled.defaults.end()));
  }

  BackendContext context;
  context.spec = &spec_;
  context.graph = graph_;
  context.program = &program_;
  context.runtime_config = DeriveRuntimeConfig(spec_);
  backend_ = MakeExecutionBackend(spec_.mode, context);
}

Engine::~Engine() = default;

RunReport Engine::Run() {
  RunReport report;
  report.iterations = iterations_;
  report.model_name = model_name_;
  report.mode = spec_.mode;
  report.has_reference = has_reference_;
  report.reference = reference_;
  report.released = backend_->Execute(base_lane_, &report.metrics)[0];
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
  std::vector<int64_t> released = backend_->Execute(ensemble_lanes_, &report.metrics);
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
