// perfbench — the DStress wall-clock benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--trace-out <file.json>]
//
// One workload per invocation. The benchmark draws the workload from the
// seed, builds its graph itself (engine::BuildTopologyGraph, handed to the
// engine as RunSpec::graph), and drives one engine::Engine at a time:
//
//   1. untimed checks: a noise-free run (noise_alpha 1e-12) must release
//      exactly the fixed-point reference, and on tcp an untimed sim run of
//      the same spec is the figure and per-bank traffic every tcp run must
//      reproduce;
//   2. until --seconds after the checks, fresh engines interleaved with warm
//      runs on the latest one, half of the time each (kSetupShare; none
//      after the first engine once the time budget is spent): each
//      construction is a setup_s sample and each engine's first Run is a
//      first_run_s sample;
//   3. at least 3 warm runs; every run's figure and per-bank TrafficStats
//      must equal the reference run;
//   4. samples taken while the hypervisor stole CPU from the VM are set
//      aside (kMaxStealShare) from every median;
//   5. with --trace 1, steps 2-4 get half of --seconds, and a second engine
//      over the timing transport decorator (traced_transport.h), whose
//      counters give the net.* layer, runs warm for the other half.
//
// The last line of stdout is one JSON object: correct / attempted / failed
// plus the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1), each as {"value", "unit"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/proc_stats.h"
#include "perfbench/traced_transport.h"
#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/ensemble/ensemble.h"
#include "src/transfer/transfer.h"

namespace perfbench {
namespace {

using namespace dstress;

// A run slower than this counts as failed (it cannot be interrupted).
constexpr double kRunTimeoutSeconds = 60;
// Warm runs made even when the setups used up the time budget.
constexpr int kMinWarmRuns = 3;
// A timed sample during which the hypervisor stole more than this share of
// the VM's CPU time (/proc/stat steal) is set aside: on a shared host, steal
// bursts slowed secure-tcp runs up to 5-fold. Medians are over the quiet
// samples, or over all of them when none was quiet. Minima need no gate: a
// stolen sample is only ever slower. A program change cannot cause steal,
// so this hides no regression.
constexpr double kMaxStealShare = 0.02;
// The share of the untraced budget that goes to fresh engines (setup_s and
// first_run_s samples); warm runs get the rest. With --trace 1, which
// reports no setup_s or first_run_s, most of it goes to the warm runs the
// per-layer medians come from.
constexpr double kSetupShare = 0.5;
constexpr double kTracedSetupShare = 0.2;
// Warm traced sim runs that baseline the secure-tcp gap attribution.
constexpr int kSimBaselineRuns = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Workloads

bool IsSecure(const engine::RunSpec& spec) { return spec.mode == engine::ExecutionMode::kSecure; }

// The graph for `seed`. With fix_shape, graph seeds are drawn from a
// seed-derived stream until the graph has the topology's modal (edge count,
// max degree) shape over graph seeds 1..64: secure-mode cost follows |E|
// and the degree bound D, so every seed then exercises the same amount of
// work on a different network.
graph::Graph DrawGraph(const engine::TopologySpec& topology, uint64_t seed, bool fix_shape) {
  Rng rng(seed);
  if (!fix_shape) {
    return engine::BuildTopologyGraph(topology, rng.Next());
  }
  std::map<std::pair<int, int>, int> shapes;
  for (uint64_t s = 1; s <= 64; s++) {
    graph::Graph g = engine::BuildTopologyGraph(topology, s);
    shapes[{g.num_edges(), g.MaxDegree()}]++;
  }
  auto modal = std::max_element(shapes.begin(), shapes.end(),
                                [](const auto& a, const auto& b) { return a.second < b.second; });
  for (int attempt = 0; attempt < 100000; attempt++) {
    graph::Graph g = engine::BuildTopologyGraph(topology, rng.Next());
    if (std::make_pair(g.num_edges(), g.MaxDegree()) == modal->first) {
      return g;
    }
  }
  std::fprintf(stderr, "perfbench: no graph of the modal shape found for seed %llu\n",
               static_cast<unsigned long long>(seed));
  std::exit(1);
}

// The workload's RunSpec, with its graph materialized and transport "sim"
// or "tcp".
std::optional<engine::RunSpec> MakeWorkload(const std::string& name, uint64_t seed, bool small) {
  engine::RunSpec spec;
  spec.seed = seed;
  spec.shock.shocked_banks = {0};
  engine::TopologySpec topology;
  bool fix_shape = true;
  if (name == "secure-sim" || name == "secure-tcp") {
    // AutoIterations: 4 at N=10, dealer triples.
    topology = engine::CorePeripheryTopology(small ? 6 : 10, 3);
    spec.block_size = small ? 3 : 4;
    if (name == "secure-tcp") {
      spec.transport = net::TcpTransportSpec();
    }
  } else if (name == "secure-ot") {
    // The shape of examples/scenarios/perf_smoke_secure_ot.scenario.
    topology = engine::CorePeripheryTopology(small ? 6 : 10, 2);
    topology.degree_cap = 4;
    spec.block_size = small ? 3 : 4;
    spec.iterations = 1;
    spec.use_ot_triples = true;
  } else if (name == "cleartext-ensemble") {
    // 2000 banks rather than 10000: a 10000-bank run took 0.5 s and its
    // 64 reference solves 1.7 s of set-up, so an invocation fit only 3 to 6
    // warm runs, and the single-threaded, memory-bound packing drifted with
    // the host by up to 25% between invocations.
    topology = engine::ScaleFreeTopology(small ? 500 : 2000, 2);
    topology.degree_cap = 8;
    spec.mode = engine::ExecutionMode::kCleartextFast;
    ensemble::EnsembleSpec es;
    es.shock_draws = small ? 8 : 64;
    es.draw_seed = seed;
    es.has_magnitude_range = true;
    es.magnitude_lo = 0.0;
    es.magnitude_hi = 0.5;
    spec.ensemble = es;
    fix_shape = false;  // |E| of a capped scale-free graph barely varies
  } else {
    return std::nullopt;
  }
  // With the auto-sized discrete-log table, seed 15 of secure-sim and seed
  // 32 of secure-ot (of seeds 1..40) abort on the Appendix B lookup-failure
  // check: the sizing seems to cover the geometric mask but not its
  // doubling (the mask is 2·Geo, see TransferParams). TransferParams' own
  // default half-range makes a miss negligible; it only costs set-up time.
  spec.dlog_range = transfer::TransferParams{}.dlog_range;
  spec.topology = topology;
  // Balance sheets as for the topology spec (core banks are larger), then
  // the benchmark's own graph replaces the topology.
  spec.workload = engine::DeriveWorkloadParams(spec);
  spec.graph = DrawGraph(topology, seed, fix_shape);
  return spec;
}

// ---------------------------------------------------------------------------
// Spans, written as Chrome trace events ("X") when the benchmark ends.

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  std::string args;  // JSON object members, without braces
};

class SpanLog {
 public:
  int Add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }
  Span& at(int id) { return spans_[id]; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d",
                    s.name.c_str(), s.start_us, s.end_us - s.start_us, i, s.parent);
      out << head << (s.args.empty() ? "" : ", ") << s.args << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Runs

struct Outcome {
  double wall_s = 0;
  double steal_share = 0;  // of the VM's CPU time while this ran
  std::vector<int64_t> figure;     // released figure, one per lane
  std::vector<uint64_t> reference;  // fixed-point reference, one per lane
  std::vector<net::TrafficStats> stats;  // per-bank traffic of this run
  core::RunMetrics metrics;
  CpuTimes driver_cpu;
  CpuTimes banks_cpu;
  NetCounters net;  // traced runs only
};

bool SameStats(const std::vector<net::TrafficStats>& a, const std::vector<net::TrafficStats>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].bytes_sent != b[i].bytes_sent || a[i].bytes_received != b[i].bytes_received ||
        a[i].messages_sent != b[i].messages_sent ||
        a[i].messages_received != b[i].messages_received) {
      return false;
    }
  }
  return true;
}

std::vector<net::TrafficStats> AllStats(const engine::Engine& engine) {
  std::vector<net::TrafficStats> stats;
  for (int v = 0; v < engine.graph().num_vertices(); v++) {
    stats.push_back(engine.transport().NodeStats(v));
  }
  return stats;
}

Outcome RunOnce(engine::Engine& engine, const std::vector<int>& bank_pids, bool traced) {
  Outcome out;
  const std::vector<net::TrafficStats> stats_before = AllStats(engine);
  const CpuTimes cpu_before = SelfCpu();
  const CpuTimes banks_before = PidsCpu(bank_pids);
  const NetCounters net_before = traced ? NetCounters::Snapshot() : NetCounters{};
  const HostTicks ticks_before = ReadHostTicks();
  const auto start = std::chrono::steady_clock::now();
  if (engine.spec().ensemble.has_value()) {
    ensemble::EnsembleReport report = engine.RunEnsemble();
    out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    for (const ensemble::ScenarioResult& lane : report.scenarios) {
      out.figure.push_back(lane.released);
      out.reference.push_back(lane.reference);
    }
    out.metrics = report.metrics;
  } else {
    engine::RunReport report = engine.Run();
    out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    out.figure.push_back(report.released);
    if (report.has_reference) {
      out.reference.push_back(report.reference);
    }
    out.metrics = report.metrics;
  }
  out.steal_share = StealShare(ticks_before, ReadHostTicks());
  if (traced) {
    out.net = NetCounters::Snapshot().Minus(net_before);
  }
  out.driver_cpu = SelfCpu().Minus(cpu_before);
  out.banks_cpu = PidsCpu(bank_pids).Minus(banks_before);
  out.stats = AllStats(engine);
  for (size_t v = 0; v < out.stats.size(); v++) {
    out.stats[v].bytes_sent -= stats_before[v].bytes_sent;
    out.stats[v].bytes_received -= stats_before[v].bytes_received;
    out.stats[v].messages_sent -= stats_before[v].messages_sent;
    out.stats[v].messages_received -= stats_before[v].messages_received;
  }
  return out;
}

std::string PhaseArgs(const Outcome& o) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"init_s\": %.6f, \"compute_s\": %.6f, \"communicate_s\": %.6f, "
                "\"aggregate_s\": %.6f, \"offline_s\": %.6f, \"offline_wait_s\": %.6f",
                o.metrics.init.seconds, o.metrics.compute.seconds,
                o.metrics.communicate.seconds, o.metrics.aggregate.seconds,
                o.metrics.offline_seconds, o.metrics.offline_wait_seconds);
  return buf;
}

// Session namespaces (top 4 bits of the session id), named per mode after
// src/core/runtime.cc and src/mpc/triple_factory.h (secure) and
// src/engine/arena_cleartext_backend.cc (cleartext). Namespaces the
// benchmark's workloads never use fold into "other".
const std::vector<std::string>& NamespaceNames() {
  static const std::vector<std::string> names = {
      "init", "transfer", "agg_gather", "agg_eval", "gmw", "offline",
      "edge", "gather", "combine", "other"};
  return names;
}

std::string NamespaceName(bool secure, int ns) {
  static const std::map<int, std::string> secure_names = {
      {1, "init"}, {3, "transfer"}, {4, "agg_gather"}, {5, "agg_eval"}, {7, "gmw"},
      {8, "offline"}};
  static const std::map<int, std::string> cleartext_names = {
      {1, "edge"}, {2, "gather"}, {3, "combine"}};
  const auto& names = secure ? secure_names : cleartext_names;
  auto it = names.find(ns);
  return it != names.end() ? it->second : "other";
}

std::string NetArgs(const NetCounters& net, bool secure) {
  std::string args;
  for (int ns = 0; ns < kNamespaces; ns++) {
    const NamespaceCounters& c = net.ns[ns];
    if (c.send_calls == 0 && c.recv_ns == 0) {
      continue;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ", \"%s_ns%d\": {\"msgs\": %llu, \"bytes\": %llu, \"send_s\": %.6f, "
                  "\"recv_blocked_s\": %.6f}",
                  NamespaceName(secure, ns).c_str(), ns,
                  static_cast<unsigned long long>(c.msgs),
                  static_cast<unsigned long long>(c.bytes), c.send_ns * 1e-9, c.recv_ns * 1e-9);
    args += buf;
  }
  return args;
}

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

std::vector<double> Walls(const std::vector<Outcome>& runs) {
  std::vector<double> walls;
  for (const Outcome& o : runs) {
    walls.push_back(o.wall_s);
  }
  return walls;
}

bool Quiet(const Outcome& o) { return o.steal_share <= kMaxStealShare; }

// The samples taken without a steal burst, or all of them when none was.
std::vector<Outcome> QuietOrAll(const std::vector<Outcome>& runs) {
  std::vector<Outcome> quiet;
  for (const Outcome& o : runs) {
    if (Quiet(o)) {
      quiet.push_back(o);
    }
  }
  return quiet.empty() ? runs : quiet;
}

template <typename F>
std::vector<double> Values(const std::vector<Outcome>& runs, F field) {
  std::vector<double> values;
  for (const Outcome& o : runs) {
    values.push_back(field(o));
  }
  return values;
}

template <typename F>
double MedianOf(const std::vector<Outcome>& runs, F field) {
  return Median(Values(runs, field));
}

double CpuSeconds(const Outcome& o) { return o.driver_cpu.total() + o.banks_cpu.total(); }

// The highest nearest-rank percentile with at least 10 samples beyond it
// (the maximum when there are fewer than 11 samples).
struct HighPercentile {
  double value = 0;
  double percent = 100;
};

HighPercentile HighestWithTenBeyond(std::vector<double> values) {
  HighPercentile hi;
  if (values.empty()) {
    return hi;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t rank = n > 10 ? n - 10 : n;  // 1-based
  hi.value = values[rank - 1];
  hi.percent = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return hi;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Transport counters of traced runs folded by namespace name ("total" sums
// every namespace), as medians over the runs.
struct NetTimes {
  double msgs = 0;
  double bytes = 0;
  double send_s = 0;
  double recv_s = 0;
};

std::map<std::string, NetTimes> NetMedians(const std::vector<Outcome>& runs, bool secure) {
  std::map<std::string, std::vector<NetTimes>> samples;
  for (const Outcome& o : runs) {
    std::map<std::string, NetTimes> run;
    for (const std::string& name : NamespaceNames()) {
      run[name];
    }
    for (int ns = 0; ns < kNamespaces; ns++) {
      const NamespaceCounters& c = o.net.ns[ns];
      for (const std::string& name : {NamespaceName(secure, ns), std::string("total")}) {
        NetTimes& t = run[name];
        t.msgs += static_cast<double>(c.msgs);
        t.bytes += static_cast<double>(c.bytes);
        t.send_s += c.send_ns * 1e-9;
        t.recv_s += c.recv_ns * 1e-9;
      }
    }
    for (const auto& [name, t] : run) {
      samples[name].push_back(t);
    }
  }
  std::map<std::string, NetTimes> medians;
  for (const auto& [name, v] : samples) {
    auto median = [&v](double NetTimes::*field) {
      std::vector<double> values;
      for (const NetTimes& t : v) {
        values.push_back(t.*field);
      }
      return Median(values);
    };
    medians[name] = {median(&NetTimes::msgs), median(&NetTimes::bytes),
                     median(&NetTimes::send_s), median(&NetTimes::recv_s)};
  }
  return medians;
}

// tcp, --trace 1: the traced run_s gap to the traced sim baseline, and the
// transport time (send + recv) each namespace adds to it.
struct SimGap {
  double tcp_s = 0;
  double sim_s = 0;
  std::map<std::string, double> added_s;  // by namespace name

  double gap_s() const { return tcp_s - sim_s; }
  double added(const std::string& name) const {
    auto it = added_s.find(name);
    return it != added_s.end() ? it->second : 0;
  }
};

// ---------------------------------------------------------------------------
// The benchmark

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Bench {
 public:
  Bench(Options options, engine::RunSpec spec)
      : opt_(std::move(options)), spec_(std::move(spec)) {}

  void Execute();
  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer() const;
  SimGap GapToSim() const;
  void PrintSummary(const std::vector<Metric>& metrics) const;
  bool WriteSpans() const { return spans_.Write(opt_.trace_out); }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  // Counts one checked run, failed when !ok or when it took
  // kRunTimeoutSeconds or longer; prints why on failure.
  void Count(const Outcome& o, bool ok, const char* what) {
    attempted_++;
    if (o.wall_s >= kRunTimeoutSeconds) {
      failed_++;
      std::fprintf(stderr, "perfbench: check failed: a run took %.1f s (limit %.0f s)\n",
                   o.wall_s, kRunTimeoutSeconds);
    } else if (!ok) {
      failed_++;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what);
    }
  }
  bool Matches(const Outcome& o, bool compare_stats) const;
  void CheckReference();
  void WarmRuns(engine::Engine& engine, const std::vector<int>& pids,
                std::chrono::steady_clock::time_point deadline, bool traced,
                std::vector<Outcome>* runs);
  // One checked warm run, appended to *runs; returns the seconds it took.
  double WarmRun(engine::Engine& engine, const std::vector<int>& pids, bool traced,
                 std::vector<Outcome>* runs);
  // Replaces *engine with a fresh one and makes its checked first run (a
  // setup_s and a first_run_s sample); returns the seconds both took.
  double FreshEngine(std::unique_ptr<engine::Engine>* engine, std::vector<int>* pids);
  void SpanAround(const char* name, double start_us, std::string args = "") {
    spans_.Add({name, start_us, NowUs(), root_, std::move(args)});
  }

  Options opt_;
  engine::RunSpec spec_;  // the workload
  SpanLog spans_;
  int root_ = -1;

  // The figure and per-bank traffic every run must reproduce (tcp: an
  // untimed sim run; otherwise the first warm run).
  std::optional<Outcome> expected_;
  std::vector<Outcome> setups_;  // Engine constructions: wall_s, steal_share
  std::vector<Outcome> first_;
  std::vector<Outcome> warm_;
  std::vector<Outcome> traced_;
  std::vector<Outcome> sim_traced_;  // tcp, --trace 1: the traced sim baseline
  double driver_rss_mb_ = 0;
  double bank_private_mb_ = 0;
  // End-to-end minima, over every sample (set-aside ones included).
  double run_min_s_ = 0;
  double first_run_min_s_ = 0;
  double cpu_min_s_ = 0;
  double steal_share_ = 0;  // median over the warm runs, before setting aside
  int set_aside_ = 0;       // timed samples set aside for steal
  int attempted_ = 0;
  int failed_ = 0;
};

bool Bench::Matches(const Outcome& o, bool compare_stats) const {
  return o.figure == expected_->figure && (!compare_stats || SameStats(o.stats, expected_->stats));
}

// Untimed: a noise-free run must release exactly the fixed-point reference
// (every lane, for the ensemble); always over sim, whose figures and
// traffic tcp must match anyway.
void Bench::CheckReference() {
  const double start = NowUs();
  engine::RunSpec spec = spec_;
  spec.noise_alpha = 1e-12;
  spec.transport = net::SimTransportSpec();
  engine::Engine engine(spec);
  Outcome o = RunOnce(engine, {}, false);
  bool exact = !o.reference.empty() && o.reference.size() == o.figure.size();
  for (size_t i = 0; exact && i < o.figure.size(); i++) {
    exact = o.figure[i] == static_cast<int64_t>(o.reference[i]);
  }
  Count(o, exact, "noise-free figure differs from the fixed-point reference");
  SpanAround("check.reference", start);

  if (spec_.transport.backend == "tcp") {
    const double sim_start = NowUs();
    engine::RunSpec sim_spec = spec_;
    sim_spec.transport = net::SimTransportSpec();
    if (opt_.trace) {
      sim_spec.transport.backend = TracedBackendName("sim");
    }
    engine::Engine sim(sim_spec);
    expected_ = RunOnce(sim, {}, opt_.trace);
    // With --trace 1, warm sim runs over the same decorator are the
    // baseline the tcp gap is attributed against.
    for (int i = 0; opt_.trace && i < kSimBaselineRuns; i++) {
      Outcome o = RunOnce(sim, {}, true);
      Count(o, Matches(o, /*compare_stats=*/true),
            "sim baseline run differs from its first run");
      sim_traced_.push_back(std::move(o));
    }
    SpanAround("check.sim_baseline", sim_start);
  }
}

void Bench::WarmRuns(engine::Engine& engine, const std::vector<int>& pids,
                     std::chrono::steady_clock::time_point deadline, bool traced,
                     std::vector<Outcome>* runs) {
  for (int made = 0; made < kMinWarmRuns || std::chrono::steady_clock::now() < deadline;
       made++) {
    WarmRun(engine, pids, traced, runs);
  }
}

double Bench::WarmRun(engine::Engine& engine, const std::vector<int>& pids, bool traced,
                      std::vector<Outcome>* runs) {
  const double start = NowUs();
  Outcome o = RunOnce(engine, pids, traced);
  if (!expected_.has_value()) {
    // The first warm run's traffic, with the figure the first run released.
    expected_ = o;
    expected_->figure = first_.front().figure;
  }
  Count(o, Matches(o, /*compare_stats=*/true),
        "warm run differs from the reference run in figure or per-bank traffic");
  SpanAround(traced ? "run.traced" : "run.warm", start,
             PhaseArgs(o) + (traced ? NetArgs(o.net, IsSecure(spec_)) : ""));
  runs->push_back(std::move(o));
  return (NowUs() - start) * 1e-6;
}

double Bench::FreshEngine(std::unique_ptr<engine::Engine>* engine, std::vector<int>* pids) {
  engine->reset();
  const double start = NowUs();
  const HostTicks ticks_before = ReadHostTicks();
  const auto t0 = std::chrono::steady_clock::now();
  *engine = std::make_unique<engine::Engine>(spec_);
  Outcome setup;
  setup.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  setup.steal_share = StealShare(ticks_before, ReadHostTicks());
  setups_.push_back(setup);
  SpanAround("engine.setup", start);
  *pids = ChildPids();
  const double run_start = NowUs();
  Outcome o = RunOnce(**engine, *pids, false);
  // Base-OT traffic belongs to the first run, so only the figure is
  // compared here; warm runs compare traffic too.
  Count(o, (!expected_.has_value() || Matches(o, /*compare_stats=*/false)) &&
            (first_.empty() || o.figure == first_.front().figure),
        "first run's figure differs from the reference run");
  SpanAround("run.first", run_start, PhaseArgs(o));
  first_.push_back(std::move(o));
  return (NowUs() - start) * 1e-6;
}

void Bench::Execute() {
  root_ = spans_.Add({"benchmark " + opt_.workload, NowUs(), 0, -1, ""});
  CheckReference();

  // The --seconds budget covers the fresh engines and the warm runs; with
  // --trace 1 the traced engine gets its second half.
  const auto measure_start = std::chrono::steady_clock::now();
  auto after = [&](double seconds) {
    return measure_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(seconds));
  };

  // Fresh engines (construction and first run) and warm runs on the latest
  // engine, interleaved: a new engine whenever fresh engines have had less
  // than their share of the time spent so far, else a warm run. The host's
  // speed changes in phases of seconds to minutes, so each kind of sample
  // sees the whole budget rather than half of it. No engine is started once
  // the budget is spent, so a slow host cannot stretch a run far past
  // --seconds.
  const double untraced_s = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
  const double share = opt_.trace ? kTracedSetupShare : kSetupShare;
  std::unique_ptr<engine::Engine> engine;
  std::vector<int> pids;
  double fresh_s = 0;
  double warm_s = 0;
  for (;;) {
    const bool spent = std::chrono::steady_clock::now() >= after(untraced_s);
    if (spent && static_cast<int>(warm_.size()) >= kMinWarmRuns) {
      break;
    }
    if (engine == nullptr || (!spent && fresh_s < share * (fresh_s + warm_s))) {
      fresh_s += FreshEngine(&engine, &pids);
    } else {
      warm_s += WarmRun(*engine, pids, false, &warm_);
    }
  }
  // The banks are forked from the driver, so their RSS counts every page
  // they inherited; their private pages are the memory of their own.
  driver_rss_mb_ = PeakRssMb(0);
  for (int pid : pids) {
    bank_private_mb_ = std::max(bank_private_mb_, PrivateResidentMb(pid));
  }
  engine.reset();

  if (opt_.trace) {
    engine::RunSpec spec = spec_;
    spec.transport.backend = TracedBackendName(spec.transport.backend);
    const double start = NowUs();
    engine = std::make_unique<engine::Engine>(spec);
    SpanAround("engine.setup.traced", start);
    pids = ChildPids();
    const double run_start = NowUs();
    Outcome o = RunOnce(*engine, pids, true);
    Count(o, Matches(o, /*compare_stats=*/false), "traced first run's figure differs");
    SpanAround("run.first.traced", run_start, PhaseArgs(o));
    WarmRuns(*engine, pids, after(opt_.seconds), true, &traced_);
    engine.reset();
  }
  spans_.at(root_).end_us = NowUs();

  run_min_s_ = Min(Walls(warm_));
  first_run_min_s_ = Min(Walls(first_));
  cpu_min_s_ = Min(Values(warm_, CpuSeconds));
  // From here on every timing median sees the quiet samples only.
  steal_share_ = MedianOf(warm_, [](const Outcome& o) { return o.steal_share; });
  for (std::vector<Outcome>* samples : {&setups_, &first_, &warm_, &traced_, &sim_traced_}) {
    std::vector<Outcome> quiet = QuietOrAll(*samples);
    set_aside_ += static_cast<int>(samples->size() - quiet.size());
    *samples = std::move(quiet);
  }
}

std::vector<Metric> Bench::EndToEnd() const {
  const int n = spec_.graph->num_vertices();
  double bytes = 0;
  for (const net::TrafficStats& s : expected_->stats) {
    bytes += static_cast<double>(s.bytes_sent);
  }
  // Run times are minima: the host only ever adds time (slow phases of
  // seconds to minutes, many with no steal to gate on), so the fastest run
  // is the steadiest estimate of the program's own cost. Medians are
  // per-layer (run_s_median) and in the summary line.
  return {
      {"run_s", run_min_s_, "s"},
      {"first_run_s", first_run_min_s_, "s"},
      {"setup_s", Median(Walls(setups_)), "s"},
      {"bytes_per_node", bytes / n, "bytes"},
      {"cpu_s", cpu_min_s_, "s"},
      {"peak_rss_mb", driver_rss_mb_ + bank_private_mb_, "MiB"},
  };
}

std::vector<Metric> Bench::PerLayer() const {
  const bool secure = IsSecure(spec_);
  auto warm = [&](auto field) { return MedianOf(warm_, field); };
  const double run_s = Median(Walls(warm_));
  const double first_run_s = Median(Walls(first_));
  const double cpu_s = warm(CpuSeconds);
  const HighPercentile hi = HighestWithTenBeyond(Walls(warm_));

  const core::RunMetrics& m = expected_->metrics;  // counts repeat exactly
  const int n = spec_.graph->num_vertices();
  const double compute_steps = m.iterations + 1;
  const double rounds = static_cast<double>(m.update_rounds) * compute_steps;
  const double and_gates =
      secure ? static_cast<double>(m.update_and_gates) * n * compute_steps +
                   static_cast<double>(m.aggregate_and_gates)
             : 0;
  const double triples = static_cast<double>(m.triples_consumed);
  const double init_s = warm([](const Outcome& o) { return o.metrics.init.seconds; });
  const double compute_s = warm([](const Outcome& o) { return o.metrics.compute.seconds; });
  const double communicate_s =
      warm([](const Outcome& o) { return o.metrics.communicate.seconds; });
  const double aggregate_s = warm([](const Outcome& o) { return o.metrics.aggregate.seconds; });
  const double gen_s = warm([](const Outcome& o) { return o.metrics.offline_seconds; });
  const double wait_s = warm([](const Outcome& o) { return o.metrics.offline_wait_seconds; });
  const double edge_iters = static_cast<double>(spec_.graph->num_edges()) * m.iterations;

  std::vector<Metric> out = {
      {"failed_frac", Ratio(failed_, attempted_), "fraction"},
      {"run_s_median", run_s, "s"},
      {"run_s_hi", hi.value, "s"},
      {"run_s_hi.pct", hi.percent, "%"},
      {"run.samples", static_cast<double>(warm_.size()), "count"},
      {"run.set_aside", static_cast<double>(set_aside_), "count"},
      {"host.steal_share", steal_share_, "fraction"},
      {"engine.lazy_s", first_run_s - run_s, "s"},
      {"core.parallelism", Ratio(cpu_s, run_s), "cores"},
      {"core.init_s", init_s, "s"},
      {"core.aggregate_s", aggregate_s, "s"},
      {"proc.sys_s",
       warm([](const Outcome& o) { return o.driver_cpu.sys_s + o.banks_cpu.sys_s; }), "s"},
      {"proc.banks_cpu_s", warm([](const Outcome& o) { return o.banks_cpu.total(); }), "s"},
      {"proc.driver_rss_mb", driver_rss_mb_, "MiB"},
      {"proc.bank_private_mb", bank_private_mb_, "MiB"},
      {"mpc.compute_s", secure ? compute_s : 0, "s"},
      {"mpc.rounds", rounds, "count"},
      {"mpc.and_gates", and_gates, "count"},
      {"mpc.triples", triples, "count"},
      {"mpc.ns_per_triple", secure ? Ratio(compute_s * 1e9, triples) : 0, "ns"},
      {"offline.gen_s", gen_s, "s"},
      {"offline.wait_s", wait_s, "s"},
      {"offline.overlap_s", gen_s - wait_s, "s"},
      {"offline.triples_per_s", Ratio(triples, gen_s), "1/s"},
      {"offline.wait_share", Ratio(wait_s, run_s), "fraction"},
      {"ot.base_ots", static_cast<double>(first_.front().metrics.base_ot_executions), "count"},
      {"transfer.s", secure ? communicate_s : 0, "s"},
      {"transfer.bytes", secure ? static_cast<double>(m.communicate.bytes) : 0, "bytes"},
      {"transfer.ms_per_edge_iter", secure ? Ratio(communicate_s * 1e3, edge_iters) : 0, "ms"},
      {"graphplane.init_s", secure ? 0 : init_s, "s"},
      {"graphplane.compute_s", secure ? 0 : compute_s, "s"},
      {"graphplane.communicate_s", secure ? 0 : communicate_s, "s"},
      {"graphplane.aggregate_s", secure ? 0 : aggregate_s, "s"},
  };

  // net.*: medians over the traced warm runs, per namespace name.
  const double traced_run_s = Median(Walls(traced_));
  std::map<std::string, NetTimes> net = NetMedians(traced_, secure);
  out.push_back({"trace.run_s", traced_run_s, "s"});
  out.push_back({"trace.overhead_frac", run_s > 0 ? traced_run_s / run_s - 1 : 0, "fraction"});
  out.push_back({"net.send_calls",
                 MedianOf(traced_, [](const Outcome& o) {
                   return static_cast<double>(o.net.Total().send_calls);
                 }),
                 "count"});
  out.push_back({"net.msgs", net["total"].msgs, "count"});
  out.push_back({"net.bytes", net["total"].bytes, "bytes"});
  out.push_back({"net.send_s", net["total"].send_s, "s"});
  out.push_back({"net.recv_blocked_s", net["total"].recv_s, "s"});
  out.push_back({"net.bulk_meter_calls",
                 MedianOf(traced_, [](const Outcome& o) {
                   return static_cast<double>(o.net.bulk_meter_calls);
                 }),
                 "count"});
  for (const std::string& name : NamespaceNames()) {
    const std::string prefix = "net." + name + ".";
    out.push_back({prefix + "msgs", net[name].msgs, "count"});
    out.push_back({prefix + "bytes", net[name].bytes, "bytes"});
    out.push_back({prefix + "send_s", net[name].send_s, "s"});
    out.push_back({prefix + "recv_blocked_s", net[name].recv_s, "s"});
  }
  out.push_back({"net.gmw.blocked_us_per_round", Ratio(net["gmw"].recv_s * 1e6, rounds), "us"});

  // tcp only: the share of the gap to sim that gmw transport time holds.
  const SimGap gap = GapToSim();
  out.push_back({"net.sim_gap_s", gap.gap_s(), "s"});
  out.push_back({"net.sim_gap_gmw_share", Ratio(gap.added("gmw"), gap.gap_s()), "fraction"});
  return out;
}

SimGap Bench::GapToSim() const {
  SimGap gap;
  if (sim_traced_.empty()) {
    return gap;
  }
  std::map<std::string, NetTimes> tcp = NetMedians(traced_, /*secure=*/true);
  std::map<std::string, NetTimes> sim = NetMedians(sim_traced_, /*secure=*/true);
  gap.tcp_s = Median(Walls(traced_));
  gap.sim_s = Median(Walls(sim_traced_));
  for (const std::string& name : NamespaceNames()) {
    gap.added_s[name] =
        tcp[name].send_s + tcp[name].recv_s - sim[name].send_s - sim[name].recv_s;
  }
  return gap;
}

void Bench::PrintSummary(const std::vector<Metric>& metrics) const {
  const graph::Graph& g = *spec_.graph;
  std::printf("workload %s  seed %llu  N=%d |E|=%d D=%d  warm runs %zu, traced runs %zu, "
              "%d samples set aside for steal\n",
              opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
              g.num_vertices(), g.num_edges(), g.MaxDegree(), warm_.size(), traced_.size(),
              set_aside_);
  std::vector<double> walls = Walls(warm_);
  std::sort(walls.begin(), walls.end());
  const HighPercentile hi = HighestWithTenBeyond(walls);
  std::printf("  warm run_s: min %.4f  median %.4f  max %.4f  p%.0f %.4f of %zu runs\n",
              walls.front(), Median(walls), walls.back(), hi.percent, hi.value, walls.size());
  for (const Metric& metric : metrics) {
    std::printf("  %-30s %14.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  if (opt_.trace) {
    // Where the traced runs block, per namespace: Recv time summed over
    // threads (so it can exceed 100% when several block at once), as a
    // share of traced run_s.
    const double traced_run_s = Median(Walls(traced_));
    std::map<std::string, NetTimes> net = NetMedians(traced_, IsSecure(spec_));
    std::printf("  recv-blocked time, summed over threads, as a share of traced run_s (%.4f s):\n",
                traced_run_s);
    for (const std::string& name : NamespaceNames()) {
      if (net[name].recv_s > 0) {
        std::printf("    %-12s %6.1f%%\n", name.c_str(),
                    100 * Ratio(net[name].recv_s, traced_run_s));
      }
    }
  }
  if (!sim_traced_.empty()) {
    const SimGap gap = GapToSim();
    std::printf("  traced run_s gap tcp - sim: %.4f s (%.4f - %.4f); transport time "
                "(send + recv) tcp adds, per namespace:\n",
                gap.gap_s(), gap.tcp_s, gap.sim_s);
    for (const auto& [name, added] : gap.added_s) {
      if (std::abs(added) >= 1e-4) {
        std::printf("    %-12s %+9.4f s  %6.1f%% of the gap\n", name.c_str(), added,
                    100 * Ratio(added, gap.gap_s()));
      }
    }
  }
}

void PrintJson(const Bench& bench, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += bench.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(bench.attempted());
  json += ", \"failed\": " + std::to_string(bench.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<secure-sim|secure-tcp|secure-ot|cleartext-ensemble> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--trace-out <file>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      opt.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.seconds <= 0) {
    return Usage("--seconds must be positive");
  }
  std::optional<engine::RunSpec> workload = MakeWorkload(opt.workload, opt.seed, opt.small);
  if (!workload.has_value()) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  RegisterTracedTransports();

  Bench bench(opt, std::move(*workload));
  bench.Execute();
  const std::vector<Metric> metrics = opt.trace ? bench.PerLayer() : bench.EndToEnd();
  bench.PrintSummary(metrics);
  if (opt.trace && !opt.trace_out.empty()) {
    if (bench.WriteSpans()) {
      std::printf("spans written to %s\n", opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.trace_out.c_str());
    }
  }
  PrintJson(bench, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
