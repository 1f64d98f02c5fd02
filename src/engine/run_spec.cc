#include "src/engine/run_spec.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace dstress::engine {

const char* ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSecure:
      return "secure";
    case ExecutionMode::kCleartextFast:
      return "cleartext";
  }
  DSTRESS_CHECK(false);
  return "?";
}

std::optional<ExecutionMode> ExecutionModeFromName(const std::string& name) {
  if (name == "secure") {
    return ExecutionMode::kSecure;
  }
  if (name == "cleartext") {
    return ExecutionMode::kCleartextFast;
  }
  return std::nullopt;
}

TopologySpec CorePeripheryTopology(int num_vertices, int core_size) {
  TopologySpec topology;
  topology.kind = TopologySpec::Kind::kCorePeriphery;
  topology.num_vertices = num_vertices;
  topology.core_size = core_size;
  return topology;
}

TopologySpec ScaleFreeTopology(int num_vertices, int links_per_vertex) {
  TopologySpec topology;
  topology.kind = TopologySpec::Kind::kScaleFree;
  topology.num_vertices = num_vertices;
  topology.links_per_vertex = links_per_vertex;
  return topology;
}

TopologySpec ExplicitTopology(int num_vertices, std::vector<std::pair<int, int>> edges) {
  TopologySpec topology;
  topology.kind = TopologySpec::Kind::kExplicit;
  topology.num_vertices = num_vertices;
  topology.edges = std::move(edges);
  return topology;
}

namespace {

graph::Graph BuildUncapped(const TopologySpec& topology, Rng& rng) {
  switch (topology.kind) {
    case TopologySpec::Kind::kCorePeriphery: {
      graph::CorePeripheryParams params;
      params.num_vertices = topology.num_vertices;
      params.core_size = topology.core_size;
      params.core_density = topology.core_density;
      params.max_core_links = topology.max_core_links;
      return graph::GenerateCorePeriphery(params, rng);
    }
    case TopologySpec::Kind::kScaleFree:
      return graph::GenerateScaleFree(topology.num_vertices, topology.links_per_vertex, rng);
    case TopologySpec::Kind::kErdosRenyi:
      return graph::GenerateErdosRenyi(topology.num_vertices, topology.edge_probability, rng);
    case TopologySpec::Kind::kExplicit: {
      graph::Graph g(topology.num_vertices);
      for (auto [u, v] : topology.edges) {
        g.AddEdge(u, v);
      }
      return g;
    }
  }
  DSTRESS_CHECK(false);
}

}  // namespace

graph::Graph BuildTopologyGraph(const TopologySpec& topology, uint64_t seed) {
  Rng rng(seed);
  graph::Graph g = BuildUncapped(topology, rng);
  if (topology.degree_cap > 0) {
    g = graph::CapDegree(g, topology.degree_cap);
  }
  return g;
}

int AutoIterations(int num_vertices) {
  int i = 1;
  while ((1 << i) < num_vertices) {
    i++;
  }
  return i;
}

finance::WorkloadParams DeriveWorkloadParams(const RunSpec& spec) {
  if (spec.workload.has_value()) {
    return *spec.workload;
  }
  finance::WorkloadParams workload;
  workload.format = spec.format;
  workload.seed = spec.seed;
  if (!spec.graph.has_value() && spec.topology.kind == TopologySpec::Kind::kCorePeriphery) {
    workload.core_size = spec.topology.core_size;
  } else {
    workload.core_size = 0;
  }
  return workload;
}

std::string RunReport::ToString() const {
  char buf[640];
  std::snprintf(buf, sizeof(buf), "mode=%s released=%lld%s %s", ExecutionModeName(mode),
                static_cast<long long>(released),
                has_reference ? (" ref=" + std::to_string(reference)).c_str() : "",
                metrics.ToString().c_str());
  return buf;
}

std::string FormatReport(const RunSpec& spec, const RunReport& report) {
  int num_vertices =
      spec.graph.has_value() ? spec.graph->num_vertices() : spec.topology.num_vertices;
  // For tcp: whether the banks were spawned locally or dialed in from
  // outside (the multi-machine deployment), and where the rendezvous was.
  std::string transport = spec.transport.backend;
  if (spec.transport.backend == "tcp" && spec.transport.external_nodes) {
    transport += " (external nodes, rendezvous " + spec.transport.host + ":" +
                 std::to_string(spec.transport.port) + ")";
  }
  // Circuit stats, so reported speedups are attributable: AND gates and
  // AND-depth fix the MPC work and round count per computation step;
  // triples are the consumed offline material (0 in cleartext mode).
  char circuit_line[192];
  std::snprintf(circuit_line, sizeof(circuit_line),
                "update circuit:      %zu AND gates, depth %zu (= GMW rounds/step), "
                "%llu triples consumed\n",
                report.metrics.update_and_gates, report.metrics.update_and_depth,
                static_cast<unsigned long long>(report.metrics.triples_consumed));
  // OT-triple runs name their offline phase (docs/offline-phase.md) and
  // print its cost, so reported walls are attributable: generation time
  // overlaps the online phase, and the wait is what the online phase lost.
  std::string offline_line;
  if (spec.use_ot_triples) {
    transport += ", triples: ot";
    char line[160];
    std::snprintf(line, sizeof(line),
                  "offline triples:     %.2f s generating, %.2f s online wait, "
                  "%llu base-OT executions\n",
                  report.metrics.offline_seconds, report.metrics.offline_wait_seconds,
                  static_cast<unsigned long long>(report.metrics.base_ot_executions));
    offline_line = line;
  }
  char buf[1536];
  std::snprintf(
      buf, sizeof(buf),
      "model:               %s\n"
      "mode:                %s\n"
      "transport:           %s\n"
      "banks:               %d (block size %d, %d iterations)\n"
      "shocked banks:       %zu\n"
      "%s"
      "%s"
      "released TDS:        %lld money units (eps=%.3f, leverage r=%.2f)\n"
      "reference TDS:       %llu money units (cleartext check, not released)\n"
      "%s"
      "wall time:           %.2f s\n"
      "traffic per bank:    %.2f MB\n",
      report.model_name.c_str(), ExecutionModeName(report.mode), transport.c_str(),
      num_vertices, spec.block_size, report.iterations, spec.shock.shocked_banks.size(),
      circuit_line, offline_line.c_str(),
      static_cast<long long>(report.released), spec.epsilon, spec.leverage,
      static_cast<unsigned long long>(report.reference),
      FormatPhaseLine(report.metrics).c_str(), report.metrics.total_seconds,
      report.metrics.avg_bytes_per_node / 1e6);
  return buf + FormatHaLines(spec, report.metrics);
}

std::string FormatPhaseLine(const core::RunMetrics& metrics) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "phases:              init %.2fs, compute %.2fs, communicate %.2fs,"
                " aggregate %.2fs\n",
                metrics.init.seconds, metrics.compute.seconds, metrics.communicate.seconds,
                metrics.aggregate.seconds);
  return line;
}

std::string FormatHaLines(const RunSpec& spec, const core::RunMetrics& metrics) {
  // HA control traffic is metered apart from the payload figures, which
  // stay bit-identical to a fault-free run.
  if (!spec.transport.ha.enabled && metrics.resumed_from_iteration < 0) {
    return "";
  }
  char ha_line[192];
  std::snprintf(ha_line, sizeof(ha_line),
                "ha overhead:         %.2f MB control traffic, %d session resume(s), "
                "%.2f s checkpointing\n",
                metrics.ha_control_bytes / 1e6, metrics.ha_resumes,
                metrics.ha_checkpoint_seconds);
  std::string out = ha_line;
  if (metrics.resumed_from_iteration >= 0) {
    out += "resumed:             from iteration " +
           std::to_string(metrics.resumed_from_iteration) + "\n";
  }
  return out;
}

}  // namespace dstress::engine
