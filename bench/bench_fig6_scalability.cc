// Figure 6: projected end-to-end computation time (left) and per-node
// traffic (right) for Eisenberg–Noe runs on networks of N = 250..2000
// nodes with degree bounds D in {10, 40, 70, 100}, plus validation points
// from real runs.
//
// Methodology mirrors the paper's §5.5: per-operation costs are measured
// with microbenchmarks of the protocol code the runtime runs
// (costmodel::CalibrateBatched), then combined analytically under the
// paper's conservative assumptions (block size 20, no overlap between a
// node's block computations, two-level aggregation tree of fan-in 100,
// I = ceil(log2 N) iterations). The paper's headline from this figure — a
// full U.S.-banking-system run (N=1750, D=100) costs hours, not years — is
// reproduced as the final row. The projected rows are informational; the
// real run at the validation point (N=20, plus N=100 with DSTRESS_FULL=1)
// records the projection's model error.
//
// Everything else is a wall-clock run on this machine: the secure
// validation run at the default thread budget and at 1, 2 and 4 workers
// (the transfer plane's measured overlap), a secure scenario ensemble
// against its solo runs, the HA overhead over real sockets, the OT triple
// factory's offline phase, the cleartext sweep up to N=1M, and the
// cleartext ensemble. The rows tools/check_bench.py can compare with the
// committed default-scale BENCH_fig6.json (modes secure, secure-ot,
// cleartext and cleartext-ensemble; not DSTRESS_FULL's block-20 secure
// rows) are timed best of 3, and the run records kernel_ms, the best-of-5
// time of a fixed integer kernel, so the gate compares each row's
// wall_ms / kernel_ms with the reference's. Everything is written to
// BENCH_fig6.json in the working directory (CI runs from the repo root and
// uploads it), one entry per row.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/runtime.h"
#include "src/costmodel/cost_model.h"
#include "src/engine/engine.h"
#include "src/ensemble/ensemble.h"

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

// Repetitions of every row check_bench.py can gate (a row with a
// counterpart in the default-scale reference); the row records the
// fastest, which filters out the upward spikes of a shared host.
constexpr int kGatedReps = 3;

// The machine-speed yardstick check_bench.py normalizes gated rows by: a
// dependent chain of 2^24 64-bit xor-shift-multiply steps, best of 5. It
// calls no library code, so a library speedup never moves it.
double KernelMs() {
  // Seed and result pass through volatiles so the chain cannot be folded.
  volatile uint64_t seed = 0x9E3779B97F4A7C15ull;
  volatile uint64_t sink = 0;
  double best = 0;
  for (int rep = 0; rep < 5; rep++) {
    Stopwatch timer;
    uint64_t x = seed + static_cast<uint64_t>(rep);
    for (uint32_t i = 0; i < (1u << 24); i++) {
      x = (x ^ (x >> 31)) * 0xBF58476D1CE4E5B9ull;
    }
    sink = sink ^ x;
    double ms = timer.ElapsedMillis();
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

// The result of the fastest of `reps` calls of `run`, timed by
// `seconds(result)`.
template <typename Run, typename Seconds>
auto BestOf(int reps, const Run& run, const Seconds& seconds) {
  auto best = run();
  for (int rep = 1; rep < reps; rep++) {
    auto next = run();
    if (seconds(next) < seconds(best)) {
      best = std::move(next);
    }
  }
  return best;
}

// BestOf's `seconds` for engine::RunReport and ensemble::EnsembleReport.
constexpr auto kReportSeconds = [](const auto& report) { return report.metrics.total_seconds; };

// A duration in the largest of s, min and h that keeps it >= 1, so the
// projection reads at block size 8 (seconds) and at 20 (hours) alike.
std::string FormatDuration(double seconds) {
  char buf[32];
  if (seconds >= 3600) {
    std::snprintf(buf, sizeof(buf), "%.1f h", seconds / 3600);
  } else if (seconds >= 60) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  }
  return buf;
}

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

// One BENCH_fig6.json entry. Empty optional fields are omitted from the
// JSON.
struct JsonEntry {
  // The default-budget secure validation row: the projection at the same
  // point and its error, projected / measured - 1.
  struct ModelCheck {
    double projected_ms = 0;
    double model_error = 0;
  };
  // secure-ha rows (docs/ha.md): heartbeat/control traffic and checkpoint
  // wall time. check_bench.py prints these as information, never gated.
  struct Ha {
    double control_bytes = 0;
    double checkpoint_ms = 0;
  };
  // secure-ot rows (docs/offline-phase.md): base-OT protocol executions,
  // the triple factory's offline generation / online-wait wall, and how
  // much of the offline work overlapped the online phase.
  struct Offline {
    double base_ot_count = 0;
    double offline_ms = 0;
    double offline_wait_ms = 0;
    double overlap_ms = 0;
  };

  int n = 0;
  int degree = 0;
  std::string mode;
  double wall_ms = 0;
  // Rows compared against a baseline run.
  std::optional<double> wall_ms_baseline = std::nullopt;
  double bytes_per_node = 0;
  // Secure validation and ensemble rows: the run's block size, and the
  // worker-pool thread budget (0 = the default budget).
  std::optional<int> block_size = std::nullopt;
  std::optional<int> workers = std::nullopt;
  // Scenario-ensemble rows: lane count K (baseline = K solo runs).
  std::optional<int> scenarios = std::nullopt;
  // secure-projected rows: the projection's MPC share (compute +
  // aggregation).
  std::optional<double> mpc_ms = std::nullopt;
  std::optional<ModelCheck> model_check = std::nullopt;
  std::optional<Ha> ha = std::nullopt;
  std::optional<Offline> offline = std::nullopt;
};

void WriteJson(const std::vector<JsonEntry>& entries, int block_size, double kernel_ms,
               double per_and_us) {
  std::FILE* f = std::fopen("BENCH_fig6.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_fig6.json: cannot open for writing, skipping\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fig6\",\n");
  std::fprintf(f, "  \"block_size\": %d,\n", block_size);
  std::fprintf(f, "  \"kernel_ms\": %.3f,\n", kernel_ms);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"mpc_us_per_and\": %.4f,\n", per_and_us);
  std::fprintf(f, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); i++) {
    const JsonEntry& e = entries[i];
    std::fprintf(f, "    {\"N\": %d, \"D\": %d, \"mode\": \"%s\"", e.n, e.degree, e.mode.c_str());
    if (e.block_size) {
      std::fprintf(f, ", \"block_size\": %d", *e.block_size);
    }
    if (e.workers) {
      std::fprintf(f, ", \"workers\": %d", *e.workers);
    }
    if (e.scenarios) {
      std::fprintf(f, ", \"scenarios\": %d", *e.scenarios);
    }
    std::fprintf(f, ", \"wall_ms\": %.2f", e.wall_ms);
    if (e.mpc_ms) {
      std::fprintf(f, ", \"mpc_ms\": %.2f", *e.mpc_ms);
    }
    if (e.wall_ms_baseline) {
      std::fprintf(f, ", \"wall_ms_baseline\": %.2f, \"speedup\": %.2f", *e.wall_ms_baseline,
                   e.wall_ms > 0 ? *e.wall_ms_baseline / e.wall_ms : 0.0);
    }
    if (e.model_check) {
      std::fprintf(f, ", \"projected_ms\": %.2f, \"model_error\": %.4f",
                   e.model_check->projected_ms, e.model_check->model_error);
    }
    if (e.ha) {
      std::fprintf(f, ", \"ha_control_bytes\": %.0f, \"ha_checkpoint_ms\": %.2f",
                   e.ha->control_bytes, e.ha->checkpoint_ms);
    }
    if (e.offline) {
      std::fprintf(f,
                   ", \"base_ot_count\": %.0f, \"offline_ms\": %.2f, \"offline_wait_ms\": %.2f"
                   ", \"overlap_ms\": %.2f",
                   e.offline->base_ot_count, e.offline->offline_ms, e.offline->offline_wait_ms,
                   e.offline->overlap_ms);
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

// A secure validation row (the run's figures come from `report`).
JsonEntry SecureRow(int n, int degree, int block_size, int workers,
                    const engine::RunReport& report) {
  JsonEntry row{n, degree, "secure", report.metrics.total_seconds * 1e3};
  row.bytes_per_node = report.metrics.avg_bytes_per_node;
  row.block_size = block_size;
  row.workers = workers;
  return row;
}

void AddTraffic(const net::TrafficStats& t, net::TrafficStats* sum) {
  sum->bytes_sent += t.bytes_sent;
  sum->bytes_received += t.bytes_received;
  sum->messages_sent += t.messages_sent;
  sum->messages_received += t.messages_received;
}

bool SameTraffic(const net::TrafficStats& a, const net::TrafficStats& b) {
  return a.bytes_sent == b.bytes_sent && a.bytes_received == b.bytes_received &&
         a.messages_sent == b.messages_sent && a.messages_received == b.messages_received;
}

// Secure scenario ensemble (src/ensemble): `draws` shock draws as lanes of
// one lockstep pass vs the same scenarios run solo. With dealer triples
// every lane's figure equals its solo's and each node's traffic equals the
// sum of its solos' (EnsembleSecureTest pins both at small N; re-checked
// here at bench scale). Informational: lanes share no transfer crypto, so
// the ratio sits near 1x.
JsonEntry SecureEnsembleRow(const engine::RunSpec& base, int n, int degree, int block_size,
                            int draws) {
  engine::RunSpec spec = base;
  spec.ensemble.emplace();
  spec.ensemble->shock_draws = draws;
  spec.ensemble->draw_seed = 9;
  engine::Engine ens(spec);
  ensemble::EnsembleReport report = ens.RunEnsemble();

  std::vector<ensemble::Scenario> scenarios =
      ensemble::MaterializeScenarios(*spec.ensemble, spec.shock, n);
  std::vector<net::TrafficStats> solo_traffic(static_cast<size_t>(ens.transport().num_nodes()));
  double solo_seconds = 0;
  for (int s = 0; s < draws; s++) {
    engine::Engine solo(ensemble::SoloSpecFor(spec, scenarios[s]));
    engine::RunReport solo_report = solo.Run();
    DSTRESS_CHECK(solo_report.released == report.scenarios[s].released);
    solo_seconds += solo_report.metrics.total_seconds;
    for (size_t v = 0; v < solo_traffic.size(); v++) {
      AddTraffic(solo.transport().NodeStats(static_cast<int>(v)), &solo_traffic[v]);
    }
  }
  for (size_t v = 0; v < solo_traffic.size(); v++) {
    DSTRESS_CHECK(SameTraffic(ens.transport().NodeStats(static_cast<int>(v)), solo_traffic[v]));
  }
  std::printf("N=%-5d D=%-3d ensemble (%d draws): %6.2f s vs %6.2f s for the solos (%.2fx), "
              "%llu bytes on both sides\n",
              n, degree, draws, report.metrics.total_seconds, solo_seconds,
              solo_seconds / report.metrics.total_seconds,
              static_cast<unsigned long long>(ens.transport().TotalBytes()));
  JsonEntry row{n, degree, "secure-ensemble", report.metrics.total_seconds * 1e3,
                solo_seconds * 1e3, report.metrics.avg_bytes_per_node};
  row.block_size = block_size;
  row.scenarios = draws;
  return row;
}

void Run() {
  int block_size = FullScale() ? 20 : 8;
  std::vector<JsonEntry> json;

  const double kernel_ms = KernelMs();
  std::printf("# kernel: %.2f ms (2^24-step integer chain, best of 5), %u hardware threads\n",
              kernel_ms, std::thread::hardware_concurrency());

  std::printf("# Figure 6: projected EN end-to-end cost, block size %d, tree fan-in 100\n",
              block_size);
  std::printf("# calibrating per-operation costs on this machine\n");
  costmodel::MicroCosts costs = costmodel::CalibrateBatched(block_size, 12, /*batch_width=*/64);
  std::printf("# %s\n", costs.ToString().c_str());

  // The sweep grid, under §5.5's no-overlap serialization. The mpc column
  // isolates the MPC terms (compute + aggregation) from the transfer
  // crypto that dominates end-to-end time.
  std::printf("%6s %6s %6s %10s %10s %16s\n", "N", "D", "I", "time", "mpc", "traffic/node(MB)");
  for (int degree : {10, 40, 70, 100}) {
    for (int n : {250, 500, 750, 1000, 1250, 1500, 1750, 2000}) {
      costmodel::Projection proj = Project(costs, ParamsFor(n, degree, block_size));
      double mpc_s = proj.compute_seconds + proj.aggregate_seconds;
      std::printf("%6d %6d %6d %10s %10s %16.1f\n", n, degree, IterationsFor(n),
                  FormatDuration(proj.total_seconds).c_str(), FormatDuration(mpc_s).c_str(),
                  proj.traffic_bytes_per_node / 1e6);
      JsonEntry row{n, degree, "secure-projected", proj.total_seconds * 1e3};
      row.bytes_per_node = proj.traffic_bytes_per_node;
      row.mpc_ms = mpc_s * 1e3;
      json.push_back(row);
    }
  }
  {
    costmodel::Projection us = Project(costs, ParamsFor(1750, 100, block_size));
    std::printf("# headline: N=1750 D=100 -> %s, %.0f MB per node at block size %d "
                "(paper: ~4.8 h, ~750 MB on EC2 at block size 20)\n",
                FormatDuration(us.total_seconds).c_str(), us.traffic_bytes_per_node / 1e6,
                block_size);
  }

  // Wide-area deployment model (§5.3's caveat): GMW round latency and a
  // bounded uplink at every bank. Rounds still equal AND-depth in the
  // batched plane, so the latency term is unchanged.
  std::printf("\n# wide-area deployment model (N=1750, D=100): each GMW round pays an RTT\n");
  std::printf("%10s %15s %12s\n", "rtt(ms)", "uplink(Mbps)", "time");
  for (double rtt : {10.0, 50.0}) {
    for (double mbps : {100.0, 1000.0}) {
      costmodel::WanParams wan;
      wan.rtt_ms = rtt;
      wan.bandwidth_mbps = mbps;
      costmodel::Projection proj = ProjectWan(costs, ParamsFor(1750, 100, block_size), wan);
      std::printf("%10.0f %15.0f %12s\n", rtt, mbps, FormatDuration(proj.total_seconds).c_str());
    }
  }
  std::printf("# latency, not bandwidth, dominates a WAN deployment; the run stays in the\n"
              "# hours-not-years regime the paper's conclusion needs\n");

  // Validation points: projection vs a real end-to-end run, and the same
  // run at fixed worker-pool budgets. Only the transfer plane runs on the
  // pool (compute and aggregation are single lockstep calls), so the
  // worker rows measure the overlap the paper's model leaves out.
  std::printf("\n# validation runs (D and N reduced to keep the default bench fast)\n");
  std::vector<int> validation_ns = FullScale() ? std::vector<int>{20, 100}
                                               : std::vector<int>{20};
  // The block-20 rows of DSTRESS_FULL=1 have no counterpart in the
  // default-scale reference, so they run once and skip the worker rows.
  const int secure_reps = FullScale() ? 1 : kGatedReps;
  for (int n : validation_ns) {
    int degree = FullScale() ? 10 : 6;
    engine::RunSpec spec = ValidationSpec(n, degree, block_size);
    engine::RunReport report =
        BestOf(secure_reps, [&] { return engine::Engine(spec).Run(); }, kReportSeconds);

    costmodel::Projection proj = Project(costs, ParamsFor(n, degree, block_size));
    double model_error = proj.total_seconds / report.metrics.total_seconds - 1.0;
    std::printf(
        "N=%-5d D=%-3d measured: %6.2f s end-to-end, MPC compute %5.2f s, %6.2f MB/node | "
        "projected: %6.2f s, model error %+.0f%%\n",
        n, degree, report.metrics.total_seconds, report.metrics.compute.seconds,
        report.metrics.avg_bytes_per_node / 1e6, proj.total_seconds, model_error * 100);
    JsonEntry secure = SecureRow(n, degree, block_size, /*workers=*/0, report);
    secure.model_check = JsonEntry::ModelCheck{proj.total_seconds * 1e3, model_error};
    json.push_back(secure);
    JsonEntry secure_mpc{n, degree, "secure-mpc", report.metrics.compute.seconds * 1e3};
    secure_mpc.bytes_per_node = report.metrics.avg_bytes_per_node;
    json.push_back(secure_mpc);
    if (n != 20) {
      continue;
    }

    if (!FullScale()) {
      std::printf("%13s %12s %16s\n", "workers", "wall(s)", "communicate(s)");
      std::printf("%13s %12.2f %16.2f\n", "default", report.metrics.total_seconds,
                  report.metrics.communicate.seconds);
      for (int workers : {1, 2, 4}) {
        engine::RunSpec worker_spec = spec;
        worker_spec.max_parallel_tasks = workers;
        engine::RunReport worker_report = BestOf(
            kGatedReps, [&] { return engine::Engine(worker_spec).Run(); }, kReportSeconds);
        DSTRESS_CHECK(worker_report.released == report.released);
        DSTRESS_CHECK(worker_report.metrics.avg_bytes_per_node ==
                      report.metrics.avg_bytes_per_node);
        std::printf("%13d %12.2f %16.2f\n", workers, worker_report.metrics.total_seconds,
                    worker_report.metrics.communicate.seconds);
        json.push_back(SecureRow(n, degree, block_size, workers, worker_report));
      }
    }

    json.push_back(SecureEnsembleRow(spec, n, degree, block_size, /*draws=*/4));

    // HA overhead at the acceptance point (docs/ha.md): the same run over
    // real sockets, plain vs HA-enabled (heartbeats + sequence wrapping +
    // periodic checkpoints). check_bench.py prints the row's control
    // traffic and checkpoint time as informational columns; it is never
    // gated — heartbeat bytes scale with wall time, not protocol.
    engine::RunSpec tcp_spec = spec;
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

    double overhead_pct =
        tcp_plain.metrics.total_seconds > 0
            ? (tcp_ha.metrics.total_seconds / tcp_plain.metrics.total_seconds - 1.0) * 100.0
            : 0.0;
    std::printf(
        "N=%-5d D=%-3d ha (tcp): %6.1f s vs %6.1f s plain (%+.1f%%), %.2f MB control "
        "traffic, %.3f s checkpointing\n",
        n, degree, tcp_ha.metrics.total_seconds, tcp_plain.metrics.total_seconds, overhead_pct,
        tcp_ha.metrics.ha_control_bytes / 1e6, tcp_ha.metrics.ha_checkpoint_seconds);
    JsonEntry ha_row{n, degree, "secure-ha", tcp_ha.metrics.total_seconds * 1e3,
                     tcp_plain.metrics.total_seconds * 1e3, tcp_ha.metrics.avg_bytes_per_node};
    ha_row.ha = JsonEntry::Ha{static_cast<double>(tcp_ha.metrics.ha_control_bytes),
                              tcp_ha.metrics.ha_checkpoint_seconds * 1e3};
    json.push_back(ha_row);
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
    core::RunMetrics m = BestOf(
        kGatedReps, [&] { return RunSecureOt(n, ot_degree, ot_block_size, ot_fanout); },
        [](const core::RunMetrics& metrics) { return metrics.total_seconds; });
    double overlap_ms = std::max(0.0, (m.offline_seconds - m.offline_wait_seconds) * 1e3);
    std::printf("%6d %6d %12.2f %10llu %12.2f %12.0f\n", n, ot_block_size, m.total_seconds,
                static_cast<unsigned long long>(m.base_ot_executions), m.offline_seconds,
                overlap_ms);
    JsonEntry ot_row{n, ot_degree, "secure-ot", m.total_seconds * 1e3};
    ot_row.bytes_per_node = m.avg_bytes_per_node;
    ot_row.offline = JsonEntry::Offline{static_cast<double>(m.base_ot_executions),
                                        m.offline_seconds * 1e3, m.offline_wait_seconds * 1e3,
                                        overlap_ms};
    json.push_back(ot_row);
  }

  // Beyond the projection: the cleartext fast path actually executes the
  // large-N sweep the secure mode can only model — same circuits, same
  // transport and scheduler, word-parallel over the same EvalPlan. Since
  // the flat-arena graph plane (src/graphplane) the sweep reaches N=1M, and
  // tools/check_bench.py holds the N=1M row to a wall-clock budget.
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

    // One engine serves all repetitions: building the N=1M graph costs
    // ~10x its run, and the first run is one of the three timed.
    engine::Engine eng(spec);
    engine::RunReport report = BestOf(kGatedReps, [&] { return eng.Run(); }, kReportSeconds);
    if (n == 100000) {
      // Steady-state allocation assertion: the timed runs warmed every
      // grow-only buffer (arena, frontier, EvalPacked scratch, sender
      // staging), so another run must allocate only small per-run
      // transients — far below the ~50 MB arena or the circuit-wire
      // scratch a per-chunk allocation would re-acquire ~1600x per pass.
      uint64_t bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
      uint64_t calls_before = g_alloc_calls.load(std::memory_order_relaxed);
      eng.Run();
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
              "# up to N=1M\n");

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
  // lane stride) and is not a row the amortization floor should pin.
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

    ensemble::EnsembleReport report =
        BestOf(kGatedReps, [&] { return engine::Engine(spec).RunEnsemble(); }, kReportSeconds);
    std::vector<ensemble::Scenario> scenarios =
        ensemble::MaterializeScenarios(*spec.ensemble, spec.shock, 1000);
    double solo_seconds = BestOf(
        kGatedReps,
        [&] {
          double seconds = 0;
          for (int s = 0; s < k_scenarios; s++) {
            engine::RunReport solo =
                engine::Engine(ensemble::SoloSpecFor(spec, scenarios[s])).Run();
            DSTRESS_CHECK(solo.released == report.scenarios[s].released);
            seconds += solo.metrics.total_seconds;
          }
          return seconds;
        },
        [](double seconds) { return seconds; });
    std::printf("%6d %14.2f %14.2f %13.1fx\n", k_scenarios, report.metrics.total_seconds,
                solo_seconds, solo_seconds / report.metrics.total_seconds);
    JsonEntry row{1000, 8, "cleartext-ensemble", report.metrics.total_seconds * 1e3,
                  solo_seconds * 1e3, report.metrics.avg_bytes_per_node};
    row.scenarios = k_scenarios;
    json.push_back(row);
  }
  std::printf("# one lockstep pass amortizes per-edge messaging and fixed overheads across\n"
              "# lanes; tools/check_bench.py pins the floor. Since the arena graph plane\n"
              "# the solo baselines are themselves bitsliced (64 vertices per word), so\n"
              "# the margin is ~2x fixed-cost amortization.\n");

  WriteJson(json, block_size, kernel_ms, costs.seconds_per_and * 1e6);
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::Run();
  return 0;
}
