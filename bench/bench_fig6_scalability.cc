// Figure 6: projected end-to-end computation time (left) and per-node
// traffic (right) for Eisenberg–Noe runs on networks of N = 250..2000
// nodes with degree bounds D in {10, 40, 70, 100}, plus validation points
// from real runs.
//
// Methodology mirrors the paper's §5.5: per-operation costs are measured
// with microbenchmarks of the actual protocol implementations, then
// combined analytically under conservative assumptions (block size 20, no
// overlap between a node's block computations, two-level aggregation tree
// of fan-in 100, I = ceil(log2 N) iterations). The paper's headline from
// this figure — a full U.S.-banking-system run (N=1750, D=100) costs hours,
// not years — is reproduced as the final row.
//
// Since the packed-share refactor (docs/packed-eval.md) and the transfer
// crypto engine (docs/transfer-crypto.md) the bench calibrates every
// projected term twice — the MPC per-AND cost with one GmwParty per role vs
// the batched bitsliced data plane, and the four transfer role costs with
// the per-role pure-scheme functions vs the batched wire-level engine
// (fixed-base key tables, batch-affine encryption, cached noise points) —
// so every projected speedup carries its own baseline calibrated in the
// same run and build. The projected batched rows also carry the engine's
// once-per-run certificate-table build charge, so the speedup is honest
// about setup. Scheduling assumptions differ by design: the baseline keeps
// the paper's conservative no-overlap serialization, while the batched
// rows model the worker-pool transfer plane overlapping a node's
// independent per-edge tasks across kTransferWorkers deployment cores
// (recorded in the JSON as "transfer_workers"); the validation runs below
// are real wall-clock on this machine and make no such assumption.
// Everything is also written to BENCH_fig6.json (in the working directory;
// CI runs from the repo root and uploads it), one entry per (N, mode) with
// wall-ms, bytes/node and, where a baseline exists, its wall-ms.
//
// Validation: the same projection is evaluated at small N and compared to
// real end-to-end runs (the paper validates at N=20 and N=100 with D=10;
// the reduced default validates at N=20, DSTRESS_FULL=1 adds N=100).

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/runtime.h"
#include "src/costmodel/cost_model.h"
#include "src/engine/engine.h"

// Global allocation accounting for the steady-state assertion below: the
// arena graph plane's hot loop must not allocate per iteration once warm
// (EvalPlan::EvalPacked scratch and the plane's buffers are grow-only), so
// a warmed N=100k run's total allocation volume is bounded by small per-run
// transients, not by circuit-wire or arena sizes.
namespace {
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_alloc_calls{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dstress::bench {
namespace {

int IterationsFor(int n) { return static_cast<int>(std::ceil(std::log2(n))); }

// Deployment cores the batched plane's projection overlaps a node's
// independent per-edge transfer tasks across (the paper-era EC2 compute
// node, c4.2xlarge, has 8 vCPUs). The seed-schedule baseline keeps the
// paper's §5.5 no-overlap serialization (transfer_workers = 1), so the
// secure-projected speedup column reports the full engine delta: batched
// arithmetic (tables + batch-affine + caches) times scheduling (worker-pool
// overlap vs the paper's conservative serialization). See
// ProjectionParams::transfer_workers and docs/transfer-crypto.md.
constexpr int kTransferWorkers = 8;

costmodel::ProjectionParams ParamsFor(int n, int degree, int block_size) {
  auto en = EnParams(degree, IterationsFor(n));
  auto program = finance::MakeEnProgram(en);
  costmodel::ProjectionParams p;
  p.num_nodes = n;
  p.degree_bound = degree;
  p.block_size = block_size;
  p.iterations = en.iterations;
  p.message_bits = 12;
  p.aggregation_fanout = 100;
  circuit::Circuit update = core::BuildUpdateCircuit(program);
  circuit::Circuit aggregate = core::BuildAggregateCircuit(program, std::min(n, 100), false);
  circuit::Circuit combine =
      core::BuildCombineCircuit(program, std::max(1, (n + 99) / 100), true);
  p.update_and_gates = update.stats().num_and;
  p.aggregate_and_gates_per_group = aggregate.stats().num_and;
  p.combine_and_gates = combine.stats().num_and;
  p.update_and_depth = update.stats().and_depth;
  p.aggregate_and_depth = aggregate.stats().and_depth;
  p.combine_and_depth = combine.stats().and_depth;
  p.state_bits = program.state_bits;
  return p;
}

// One BENCH_fig6.json entry. wall_ms_baseline < 0 means "no baseline for
// this row" (it is omitted from the JSON).
struct JsonEntry {
  int n = 0;
  int degree = 0;
  std::string mode;
  double wall_ms = 0;
  double wall_ms_baseline = -1;
  double bytes_per_node = 0;
  // Scenario-ensemble rows only: lane count K (baseline = K solo runs).
  int scenarios = 0;
  // secure-ha rows only (docs/ha.md): heartbeat/control traffic and
  // checkpoint wall time. Negative = not an HA row (fields omitted).
  // check_bench.py prints these as informational columns, never gated.
  double ha_control_bytes = -1;
  double ha_checkpoint_ms = -1;
  // secure-ot rows only (docs/offline-phase.md): base-OT protocol
  // executions, the triple factory's offline generation / online-wait
  // wall, and how much of the offline work overlapped the online phase.
  // Negative = not an OT row (fields omitted).
  double base_ot_count = -1;
  double offline_ms = -1;
  double offline_wait_ms = -1;
  double overlap_ms = -1;
};

void WriteJson(const std::vector<JsonEntry>& entries, int block_size, double per_and_seed_us,
               double per_and_batched_us) {
  std::FILE* f = std::fopen("BENCH_fig6.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_fig6.json: cannot open for writing, skipping\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fig6\",\n");
  std::fprintf(f, "  \"block_size\": %d,\n", block_size);
  std::fprintf(f, "  \"transfer_workers\": %d,\n", kTransferWorkers);
  std::fprintf(f, "  \"mpc_us_per_and_baseline\": %.4f,\n", per_and_seed_us);
  std::fprintf(f, "  \"mpc_us_per_and_batched\": %.4f,\n", per_and_batched_us);
  std::fprintf(f, "  \"mpc_per_and_speedup\": %.2f,\n", per_and_seed_us / per_and_batched_us);
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); i++) {
    const JsonEntry& e = entries[i];
    std::fprintf(f, "    {\"N\": %d, \"D\": %d, \"mode\": \"%s\", \"wall_ms\": %.2f", e.n,
                 e.degree, e.mode.c_str(), e.wall_ms);
    if (e.scenarios > 0) {
      std::fprintf(f, ", \"scenarios\": %d", e.scenarios);
    }
    if (e.wall_ms_baseline >= 0) {
      std::fprintf(f, ", \"wall_ms_baseline\": %.2f, \"speedup\": %.2f", e.wall_ms_baseline,
                   e.wall_ms > 0 ? e.wall_ms_baseline / e.wall_ms : 0.0);
    }
    if (e.ha_control_bytes >= 0) {
      std::fprintf(f, ", \"ha_control_bytes\": %.0f, \"ha_checkpoint_ms\": %.2f",
                   e.ha_control_bytes, e.ha_checkpoint_ms);
    }
    if (e.base_ot_count >= 0) {
      std::fprintf(f,
                   ", \"base_ot_count\": %.0f, \"offline_ms\": %.2f, \"offline_wait_ms\": %.2f"
                   ", \"overlap_ms\": %.2f",
                   e.base_ot_count, e.offline_ms, e.offline_wait_ms, e.overlap_ms);
    }
    std::fprintf(f, ", \"bytes_per_node\": %.0f}%s\n", e.bytes_per_node,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote BENCH_fig6.json (%zu entries)\n", entries.size());
}

// --- Secure OT offline phase (docs/offline-phase.md) -----------------------
//
// Real end-to-end runs with IKNP OT-extension triples through the node-pair
// triple factory, driven through core::Runtime directly.

core::RunMetrics RunSecureOt(int n, int degree, int block_size, int fanout) {
  engine::TopologySpec topo = engine::CorePeripheryTopology(n, std::max(2, n / 10));
  topo.degree_cap = degree;
  graph::Graph g = engine::BuildTopologyGraph(topo, /*seed=*/4);
  finance::EnProgramParams en = EnParams(degree, /*iterations=*/1);
  // Lean 8-bit fixed point: the row measures the offline phase, and the
  // online/extension work (which scales with circuit size) would otherwise
  // dilute it.
  en.format.value_bits = 8;
  en.format.frac_bits = 4;
  finance::WorkloadParams workload;
  workload.format = en.format;
  workload.seed = 4;
  workload.core_size = std::max(2, n / 10);
  finance::ShockParams shock;
  shock.shocked_banks = {0};
  finance::EnInstance instance = finance::MakeEnWorkload(g, workload, shock);
  core::VertexProgram program = finance::MakeEnProgram(en);
  std::vector<mpc::BitVector> states = finance::MakeEnInitialStates(instance, en);

  core::RuntimeConfig config;
  config.block_size = block_size;
  config.seed = 4;
  config.transfer_budget_alpha = 0.99;
  config.use_ot_triples = true;
  config.aggregation_fanout = fanout;
  core::Runtime runtime(config, g, program);
  core::RunMetrics metrics;
  runtime.Run(states, &metrics);
  return metrics;
}

engine::RunSpec ValidationSpec(int n, int degree, int block_size) {
  engine::RunSpec spec;
  spec.topology = engine::CorePeripheryTopology(n, std::max(2, n / 10));
  spec.topology.degree_cap = degree;
  spec.degree_bound = degree;
  spec.model = engine::ContagionModel::kEisenbergNoe;
  spec.format = BenchFormat();
  spec.aggregate_bits = 24;
  spec.noise_alpha = 0.5;
  spec.iterations = IterationsFor(n);
  spec.shock.shocked_banks = {0};
  spec.block_size = block_size;
  spec.transfer_budget_alpha = 0.99;
  spec.dlog_range = 0;  // auto-size for negligible lookup failure
  spec.seed = 4;
  return spec;
}

void Run() {
  int block_size = FullScale() ? 20 : 8;
  std::vector<JsonEntry> json;

  std::printf("# Figure 6: projected EN end-to-end cost, block size %d, tree fan-in 100\n",
              block_size);
  std::printf("# calibrating per-operation costs on this machine (seed vs batched data plane)\n");
  costmodel::MicroCosts seed_costs = costmodel::Calibrate(block_size, 12);
  costmodel::MicroCosts costs = costmodel::CalibrateBatched(seed_costs, 12, /*batch_width=*/64);
  std::printf("# seed    : %s\n", seed_costs.ToString().c_str());
  std::printf("# batched : %s\n", costs.ToString().c_str());
  double per_and_speedup = seed_costs.seconds_per_and / costs.seconds_per_and;
  std::printf("# GMW per-AND speedup (batched over seed, width 64): %.1fx\n", per_and_speedup);

  // The sweep grid. The projected end-to-end rows use the batched costs
  // (today's data planes) with the seed-cost projection as their same-run
  // baseline; the secure-mpc rows isolate the MPC term the packed-share
  // refactor moves. End-to-end time is dominated by the EC transfer
  // crypto, which the batched wire-level engine now moves directly, so the
  // secure-projected speedup column is the transfer engine's headline.
  std::printf("%6s %6s %6s %12s %12s %16s %10s %12s\n", "N", "D", "I", "time(min)", "mpc(min)",
              "traffic/node(MB)", "speedup", "mpc-speedup");
  for (int degree : {10, 40, 70, 100}) {
    for (int n : {250, 500, 750, 1000, 1250, 1500, 1750, 2000}) {
      costmodel::ProjectionParams params = ParamsFor(n, degree, block_size);
      // Seed baseline: paper methodology (transfer_workers = 1). Batched:
      // the engine's worker-pool transfer plane on a kTransferWorkers-core
      // deployment node.
      costmodel::Projection proj_seed = Project(seed_costs, params);
      params.transfer_workers = kTransferWorkers;
      costmodel::Projection proj = Project(costs, params);
      double mpc_s = proj.compute_seconds + proj.aggregate_seconds;
      double mpc_seed_s = proj_seed.compute_seconds + proj_seed.aggregate_seconds;
      std::printf("%6d %6d %6d %12.1f %12.2f %16.1f %9.1fx %11.1fx\n", n, degree,
                  IterationsFor(n), proj.total_seconds / 60, mpc_s / 60,
                  proj.traffic_bytes_per_node / 1e6, proj_seed.total_seconds / proj.total_seconds,
                  mpc_seed_s / mpc_s);
      JsonEntry endtoend{n, degree, "secure-projected", proj.total_seconds * 1e3,
                         proj_seed.total_seconds * 1e3, proj.traffic_bytes_per_node};
      json.push_back(endtoend);
      JsonEntry mpc{n, degree, "secure-mpc-projected", mpc_s * 1e3, mpc_seed_s * 1e3,
                    proj.traffic_bytes_per_node};
      json.push_back(mpc);
    }
  }
  {
    costmodel::ProjectionParams us_params = ParamsFor(1750, 100, block_size);
    us_params.transfer_workers = kTransferWorkers;
    costmodel::Projection us = Project(costs, us_params);
    std::printf("# headline: N=1750 D=100 -> %.1f hours, %.0f MB per node "
                "(paper: ~4.8 h, ~750 MB on EC2)\n",
                us.total_seconds / 3600, us.traffic_bytes_per_node / 1e6);
  }

  // Wide-area deployment model (§5.3's caveat): GMW round latency and a
  // bounded uplink at every bank. Rounds still equal AND-depth in the
  // batched plane, so the latency term is unchanged.
  std::printf("\n# wide-area deployment model (N=1750, D=100): each GMW round pays an RTT\n");
  std::printf("%10s %15s %12s\n", "rtt(ms)", "uplink(Mbps)", "time(h)");
  for (double rtt : {10.0, 50.0}) {
    for (double mbps : {100.0, 1000.0}) {
      costmodel::WanParams wan;
      wan.rtt_ms = rtt;
      wan.bandwidth_mbps = mbps;
      costmodel::ProjectionParams wan_params = ParamsFor(1750, 100, block_size);
      wan_params.transfer_workers = kTransferWorkers;
      costmodel::Projection proj = ProjectWan(costs, wan_params, wan);
      std::printf("%10.0f %15.0f %12.1f\n", rtt, mbps, proj.total_seconds / 3600);
    }
  }
  std::printf("# latency, not bandwidth, dominates a WAN deployment; the run stays in the\n"
              "# hours-not-years regime the paper's conclusion needs\n");

  // Validation points: projection vs a real end-to-end run.
  std::printf("\n# validation runs (D and N reduced to keep the default bench fast)\n");
  std::vector<int> validation_ns = FullScale() ? std::vector<int>{20, 100}
                                               : std::vector<int>{20};
  for (int n : validation_ns) {
    int degree = FullScale() ? 10 : 6;
    engine::RunSpec spec = ValidationSpec(n, degree, block_size);
    engine::RunReport report = engine::Engine(spec).Run();

    costmodel::Projection proj = Project(costs, ParamsFor(n, degree, block_size));
    std::printf(
        "N=%-5d D=%-3d measured: %6.1f s end-to-end, MPC compute %5.2f s, %6.2f MB/node | "
        "projected: %6.1f s\n",
        n, degree, report.metrics.total_seconds, report.metrics.compute.seconds,
        report.metrics.avg_bytes_per_node / 1e6, proj.total_seconds);
    JsonEntry secure{n, degree, "secure", report.metrics.total_seconds * 1e3};
    secure.bytes_per_node = report.metrics.avg_bytes_per_node;
    json.push_back(secure);
    JsonEntry secure_mpc{n, degree, "secure-mpc", report.metrics.compute.seconds * 1e3};
    secure_mpc.bytes_per_node = report.metrics.avg_bytes_per_node;
    json.push_back(secure_mpc);

    // HA overhead at the acceptance point (N=20, docs/ha.md): the same
    // run over real sockets, plain vs HA-enabled (heartbeats + sequence
    // wrapping + periodic checkpoints). check_bench.py prints the row's
    // control traffic and checkpoint time as informational columns; it is
    // never gated — heartbeat bytes scale with wall time, not protocol.
    if (n == 20) {
      engine::RunSpec tcp_spec = ValidationSpec(n, degree, block_size);
      tcp_spec.transport.backend = "tcp";
      engine::RunReport tcp_plain = engine::Engine(tcp_spec).Run();
      DSTRESS_CHECK(tcp_plain.released == report.released);

      const char* ckpt = "/tmp/bench_fig6_ha.ckpt";
      tcp_spec.transport.ha.enabled = true;
      tcp_spec.transport.ha.heartbeat_ms = 50;
      tcp_spec.ha_checkpoint_every = 2;
      tcp_spec.ha_checkpoint_path = ckpt;
      engine::RunReport tcp_ha = engine::Engine(tcp_spec).Run();
      DSTRESS_CHECK(tcp_ha.released == report.released);
      DSTRESS_CHECK(tcp_ha.metrics.avg_bytes_per_node == tcp_plain.metrics.avg_bytes_per_node);
      std::remove(ckpt);

      double overhead_pct = tcp_plain.metrics.total_seconds > 0
                                ? (tcp_ha.metrics.total_seconds / tcp_plain.metrics.total_seconds -
                                   1.0) * 100.0
                                : 0.0;
      std::printf(
          "N=%-5d D=%-3d ha (tcp): %6.1f s vs %6.1f s plain (%+.1f%%), %.2f MB control "
          "traffic, %.3f s checkpointing\n",
          n, degree, tcp_ha.metrics.total_seconds, tcp_plain.metrics.total_seconds, overhead_pct,
          tcp_ha.metrics.ha_control_bytes / 1e6, tcp_ha.metrics.ha_checkpoint_seconds);
      JsonEntry ha_row{n, degree, "secure-ha", tcp_ha.metrics.total_seconds * 1e3,
                       tcp_plain.metrics.total_seconds * 1e3,
                       tcp_ha.metrics.avg_bytes_per_node};
      ha_row.ha_control_bytes = static_cast<double>(tcp_ha.metrics.ha_control_bytes);
      ha_row.ha_checkpoint_ms = tcp_ha.metrics.ha_checkpoint_seconds * 1e3;
      json.push_back(ha_row);
    }
  }
  std::printf("# note: measured end-to-end time is dominated by the EC transfer crypto;\n"
              "# the 'secure-mpc' rows isolate the packed evaluation path.\n");

  // Secure OT offline phase through the node-pair triple factory: base OTs
  // paid once per node pair, iteration i+1's triples prefetched while
  // iteration i evaluates. Block size 10 keeps the offline phase dominant at
  // bench-friendly N; the N=20 row runs a fanout-4 aggregation tree, which
  // exercises the factory's tree demand re-derivation.
  std::printf("\n# secure OT offline phase: node-pair triple factory\n");
  std::printf("%6s %6s %12s %10s %12s %12s\n", "N", "k+1", "wall(s)", "base-OTs", "offline(s)",
              "overlap(ms)");
  const int ot_block_size = 10;
  for (int n : {10, 20}) {
    const int ot_degree = 3;
    const int ot_fanout = n == 20 ? 4 : 0;
    core::RunMetrics m = RunSecureOt(n, ot_degree, ot_block_size, ot_fanout);
    double overlap_ms = std::max(0.0, (m.offline_seconds - m.offline_wait_seconds) * 1e3);
    std::printf("%6d %6d %12.2f %10llu %12.2f %12.0f\n", n, ot_block_size, m.total_seconds,
                static_cast<unsigned long long>(m.base_ot_executions), m.offline_seconds,
                overlap_ms);
    JsonEntry ot_row{n, ot_degree, "secure-ot", m.total_seconds * 1e3};
    ot_row.bytes_per_node = m.avg_bytes_per_node;
    ot_row.base_ot_count = static_cast<double>(m.base_ot_executions);
    ot_row.offline_ms = m.offline_seconds * 1e3;
    ot_row.offline_wait_ms = m.offline_wait_seconds * 1e3;
    ot_row.overlap_ms = overlap_ms;
    json.push_back(ot_row);
  }

  // Beyond the projection: the cleartext fast path actually executes the
  // large-N sweep the secure mode can only model — same circuits, same
  // transport and scheduler, word-parallel over the same EvalPlan. Since
  // the flat-arena graph plane (src/graphplane) the sweep reaches N=1M, and
  // tools/check_bench.py --cleartext-max-wall-ms pins the N=1M row's wall
  // clock.
  std::printf("\n# cleartext fast-path sweep (real runs through engine::Engine)\n");
  std::printf("%8s %6s %12s %18s\n", "N", "I", "wall(s)", "traffic/node(kB)");
  std::vector<int> sweep_ns = FullScale()
                                  ? std::vector<int>{2000, 10000, 20000, 100000, 1000000}
                                  : std::vector<int>{2000, 10000, 100000, 1000000};
  for (int n : sweep_ns) {
    engine::RunSpec spec;
    spec.topology = engine::ScaleFreeTopology(n, 2);
    spec.topology.degree_cap = 8;
    spec.degree_bound = 8;
    spec.model = engine::ContagionModel::kEisenbergNoe;
    spec.format = BenchFormat();
    spec.aggregate_bits = 24;
    spec.noise_alpha = 0.5;
    spec.iterations = IterationsFor(n);
    spec.shock.shocked_banks = {0, 1, 2};
    spec.seed = 4;
    spec.mode = engine::ExecutionMode::kCleartextFast;

    engine::Engine eng(spec);
    engine::RunReport report = eng.Run();
    if (n == 100000) {
      // Steady-state allocation assertion: the first run warmed every
      // grow-only buffer (arena, frontier, EvalPacked scratch, sender
      // staging), so a second run must allocate only small per-run
      // transients — far below the ~50 MB arena or the circuit-wire
      // scratch a per-chunk allocation would re-acquire ~1600x per pass.
      uint64_t bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
      uint64_t calls_before = g_alloc_calls.load(std::memory_order_relaxed);
      report = eng.Run();
      uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before;
      uint64_t calls = g_alloc_calls.load(std::memory_order_relaxed) - calls_before;
      std::printf("# steady-state N=100k run: %.1f MB allocated in %llu calls\n", bytes / 1e6,
                  static_cast<unsigned long long>(calls));
      DSTRESS_CHECK(bytes < 64ull << 20);
    }
    std::printf("%8d %6d %12.2f %18.2f\n", n, report.iterations, report.metrics.total_seconds,
                report.metrics.avg_bytes_per_node / 1e3);
    JsonEntry row{n, 8, "cleartext", report.metrics.total_seconds * 1e3};
    row.bytes_per_node = report.metrics.avg_bytes_per_node;
    json.push_back(row);
  }
  std::printf("# the sweep grid that took the paper a cost model now runs for real,\n"
              "# including the N=1M point ROADMAP item 3 asked for\n");

  // Scenario-ensemble amortization (src/ensemble): K Monte Carlo draws
  // evaluated as lanes of one lockstep pass vs the same K scenarios run
  // solo, measured in the same build. The per-lane figures must agree
  // bit-for-bit with the solos (ensemble_test pins this at small N;
  // re-checked here at bench scale), so the amortization column compares
  // identical computations.
  std::printf("\n# cleartext scenario-ensemble amortization (N=1000 scale-free, real runs)\n");
  std::printf("%6s %14s %14s %14s\n", "K", "ensemble(s)", "K solos(s)", "amortization");
  // K=64 fills one packed word per lane group; K=128 exercises the chunked
  // (two-pass) plane. Smaller K amortizes less (compute scales with the
  // lane stride) and is not a row the >=10x gate should pin.
  for (int k_scenarios : {64, 128}) {
    engine::RunSpec spec;
    spec.topology = engine::ScaleFreeTopology(1000, 2);
    spec.topology.degree_cap = 8;
    spec.degree_bound = 8;
    spec.model = engine::ContagionModel::kEisenbergNoe;
    spec.format = BenchFormat();
    spec.aggregate_bits = 24;
    spec.noise_alpha = 0.5;
    spec.iterations = IterationsFor(1000);
    spec.shock.shocked_banks = {0, 1, 2};
    spec.seed = 4;
    spec.mode = engine::ExecutionMode::kCleartextFast;
    spec.ensemble.emplace();
    spec.ensemble->shock_draws = k_scenarios;
    spec.ensemble->draw_seed = 9;
    spec.ensemble->has_magnitude_range = true;
    spec.ensemble->magnitude_lo = 0.0;
    spec.ensemble->magnitude_hi = 0.5;

    ensemble::EnsembleReport report = engine::Engine(spec).RunEnsemble();
    std::vector<ensemble::Scenario> scenarios =
        ensemble::MaterializeScenarios(*spec.ensemble, spec.shock, 1000);
    double solo_seconds = 0;
    for (int s = 0; s < k_scenarios; s++) {
      engine::RunReport solo =
          engine::Engine(ensemble::SoloSpecFor(spec, scenarios[s])).Run();
      DSTRESS_CHECK(solo.released == report.scenarios[s].released);
      solo_seconds += solo.metrics.total_seconds;
    }
    std::printf("%6d %14.2f %14.2f %13.1fx\n", k_scenarios, report.metrics.total_seconds,
                solo_seconds, solo_seconds / report.metrics.total_seconds);
    JsonEntry row{1000, 8, "cleartext-ensemble", report.metrics.total_seconds * 1e3,
                  solo_seconds * 1e3, report.metrics.avg_bytes_per_node};
    row.scenarios = k_scenarios;
    json.push_back(row);
  }
  std::printf("# one lockstep pass amortizes per-edge messaging and fixed overheads across\n"
              "# lanes; tools/check_bench.py --ensemble-min-speedup pins the floor. Since\n"
              "# the arena graph plane the solo baselines are themselves bitsliced (64\n"
              "# vertices per word), so the margin is ~2x fixed-cost amortization.\n");

  WriteJson(json, block_size, seed_costs.seconds_per_and * 1e6, costs.seconds_per_and * 1e6);
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::Run();
  return 0;
}
