#include "src/cli/scenario.h"

#include <arpa/inet.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "src/graph/io.h"
#include "src/ha/faulty.h"
#include "src/net/transport_spec.h"

namespace dstress::cli {

namespace {

struct LineParser {
  std::vector<std::string> tokens;
  int line_number = 0;
  std::string* error;

  bool Fail(const std::string& what) const {
    *error = "line " + std::to_string(line_number) + ": " + what;
    return false;
  }

  bool ArgCount(size_t expected) const {
    if (tokens.size() - 1 != expected) {
      return Fail("expected " + std::to_string(expected) + " argument(s) for '" + tokens[0] +
                  "', got " + std::to_string(tokens.size() - 1));
    }
    return true;
  }

  bool Int(size_t index, int min_value, int* out) const {
    try {
      size_t used = 0;
      int v = std::stoi(tokens[index], &used);
      if (used != tokens[index].size() || v < min_value) {
        return Fail("bad integer '" + tokens[index] + "'");
      }
      *out = v;
      return true;
    } catch (...) {
      return Fail("bad integer '" + tokens[index] + "'");
    }
  }

  bool Double(size_t index, double* out) const {
    try {
      size_t used = 0;
      double v = std::stod(tokens[index], &used);
      if (used != tokens[index].size()) {
        return Fail("bad number '" + tokens[index] + "'");
      }
      *out = v;
      return true;
    } catch (...) {
      return Fail("bad number '" + tokens[index] + "'");
    }
  }

  // "host:port" or bare "host" (port stays 0). The port, when present,
  // must be a valid TCP port; the host must be a numeric IPv4 address —
  // that is all the socket layer (src/net/tcp_socket.h) speaks, and
  // rejecting hostnames here gives the error a line number instead of a
  // mid-bootstrap abort.
  bool Endpoint(size_t index, net::PeerEndpoint* out) const {
    const std::string& text = tokens[index];
    auto colon = text.rfind(':');
    if (colon == std::string::npos) {
      out->host = text;
      out->port = 0;
    } else {
      out->host = text.substr(0, colon);
      std::string port_text = text.substr(colon + 1);
      try {
        size_t used = 0;
        out->port = std::stoi(port_text, &used);
        if (used != port_text.size() || out->port < 1 || out->port > 65535) {
          return Fail("bad endpoint '" + text + "' (want host or host:port)");
        }
      } catch (...) {
        return Fail("bad endpoint '" + text + "' (want host or host:port)");
      }
    }
    if (out->host.empty()) {
      return Fail("bad endpoint '" + text + "' (empty host)");
    }
    in_addr parsed;
    if (inet_pton(AF_INET, out->host.c_str(), &parsed) != 1) {
      return Fail("host '" + out->host + "' is not a numeric IPv4 address (hostnames are"
                  " not supported)");
    }
    return true;
  }
};

}  // namespace

std::optional<engine::RunSpec> ParseScenario(const std::string& text, std::string* error) {
  // The "faulty" backend resolves through the registry like any other name;
  // make sure it is installed before `transport` directives are validated.
  ha::RegisterHaTransports();
  engine::RunSpec spec;
  bool saw_network = false;
  // `node` directives, indexed by bank; node_lines[bank] is the line that
  // placed it (0 = not placed), for duplicate reporting.
  std::vector<net::PeerEndpoint> node_endpoints;
  std::vector<int> node_lines;
  std::istringstream stream(text);
  std::string line;
  LineParser p;
  p.error = error;
  while (std::getline(stream, line)) {
    p.line_number++;
    auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    p.tokens.assign(std::istream_iterator<std::string>(ls), {});
    if (p.tokens.empty()) {
      continue;
    }
    const std::string& directive = p.tokens[0];

    if (directive == "network") {
      if (p.tokens.size() < 2) {
        p.Fail("network needs a topology");
        return std::nullopt;
      }
      const std::string& topo = p.tokens[1];
      if (topo == "core_periphery") {
        spec.topology.kind = engine::TopologySpec::Kind::kCorePeriphery;
        if (p.tokens.size() != 4 || !p.Int(2, 1, &spec.topology.num_vertices) ||
            !p.Int(3, 1, &spec.topology.core_size)) {
          if (error->empty()) {
            p.Fail("usage: network core_periphery <N> <core_size>");
          }
          return std::nullopt;
        }
        if (spec.topology.core_size > spec.topology.num_vertices) {
          p.Fail("core_size exceeds N");
          return std::nullopt;
        }
      } else if (topo == "scale_free") {
        spec.topology.kind = engine::TopologySpec::Kind::kScaleFree;
        if (p.tokens.size() != 4 || !p.Int(2, 2, &spec.topology.num_vertices) ||
            !p.Int(3, 1, &spec.topology.links_per_vertex)) {
          if (error->empty()) {
            p.Fail("usage: network scale_free <N> <links_per_vertex>");
          }
          return std::nullopt;
        }
      } else if (topo == "erdos_renyi") {
        spec.topology.kind = engine::TopologySpec::Kind::kErdosRenyi;
        if (p.tokens.size() != 4 || !p.Int(2, 1, &spec.topology.num_vertices) ||
            !p.Double(3, &spec.topology.edge_probability)) {
          if (error->empty()) {
            p.Fail("usage: network erdos_renyi <N> <edge_probability>");
          }
          return std::nullopt;
        }
        if (spec.topology.edge_probability < 0 || spec.topology.edge_probability > 1) {
          p.Fail("edge_probability must be in [0, 1]");
          return std::nullopt;
        }
      } else if (topo == "file") {
        spec.topology.kind = engine::TopologySpec::Kind::kExplicit;
        if (p.tokens.size() != 3) {
          p.Fail("usage: network file <edge-list-path>");
          return std::nullopt;
        }
        std::string io_error;
        auto g = graph::LoadEdgeListFile(p.tokens[2], &io_error);
        if (!g.has_value()) {
          p.Fail("edge-list file: " + io_error);
          return std::nullopt;
        }
        spec.topology.num_vertices = g->num_vertices();
        spec.topology.edges = g->Edges();
      } else if (topo == "explicit") {
        spec.topology.kind = engine::TopologySpec::Kind::kExplicit;
        if (p.tokens.size() != 3 || !p.Int(2, 1, &spec.topology.num_vertices)) {
          if (error->empty()) {
            p.Fail("usage: network explicit <N>");
          }
          return std::nullopt;
        }
      } else {
        p.Fail("unknown topology '" + topo + "'");
        return std::nullopt;
      }
      saw_network = true;
    } else if (directive == "edge") {
      int u = 0;
      int v = 0;
      if (!p.ArgCount(2) || !p.Int(1, 0, &u) || !p.Int(2, 0, &v)) {
        return std::nullopt;
      }
      if (!saw_network || spec.topology.kind != engine::TopologySpec::Kind::kExplicit) {
        p.Fail("edge requires a preceding 'network explicit' directive");
        return std::nullopt;
      }
      if (u >= spec.topology.num_vertices || v >= spec.topology.num_vertices || u == v) {
        p.Fail("edge endpoints out of range");
        return std::nullopt;
      }
      spec.topology.edges.emplace_back(u, v);
    } else if (directive == "model") {
      if (!p.ArgCount(1)) {
        return std::nullopt;
      }
      if (p.tokens[1] == "en") {
        spec.model = engine::ContagionModel::kEisenbergNoe;
      } else if (p.tokens[1] == "egj") {
        spec.model = engine::ContagionModel::kElliottGolubJackson;
      } else {
        p.Fail("model must be 'en' or 'egj'");
        return std::nullopt;
      }
    } else if (directive == "mode") {
      if (!p.ArgCount(1)) {
        return std::nullopt;
      }
      auto mode = engine::ExecutionModeFromName(p.tokens[1]);
      if (!mode.has_value()) {
        p.Fail("mode must be 'secure' or 'cleartext'");
        return std::nullopt;
      }
      spec.mode = *mode;
    } else if (directive == "transport") {
      if (p.tokens.size() < 2) {
        p.Fail("usage: transport <backend> [rendezvous-host:port]");
        return std::nullopt;
      }
      if (!net::KnownTransportBackend(p.tokens[1])) {
        std::string known;
        for (const std::string& name : net::KnownTransportBackends()) {
          known += known.empty() ? "'" + name + "'" : " or '" + name + "'";
        }
        p.Fail("transport must be " + known);
        return std::nullopt;
      }
      spec.transport.backend = p.tokens[1];
      // The fault-injection wrapper names the real backend it decorates:
      // `transport faulty <sim|tcp> [host:port]` (docs/ha.md).
      size_t addr_index = 2;
      if (spec.transport.backend == "faulty") {
        if (p.tokens.size() < 3 || (p.tokens[2] != "sim" && p.tokens[2] != "tcp")) {
          p.Fail("usage: transport faulty <sim|tcp> [rendezvous-host:port]");
          return std::nullopt;
        }
        spec.transport.faulty_inner = p.tokens[2];
        addr_index = 3;
      }
      if (p.tokens.size() > addr_index + 1) {
        p.Fail("usage: transport <backend> [rendezvous-host:port]");
        return std::nullopt;
      }
      if (p.tokens.size() == addr_index + 1) {
        const bool tcp_like = spec.transport.backend == "tcp" ||
                              (spec.transport.backend == "faulty" &&
                               spec.transport.faulty_inner == "tcp");
        if (!tcp_like) {
          p.Fail("transport '" + spec.transport.backend + "' takes no rendezvous address");
          return std::nullopt;
        }
        net::PeerEndpoint rendezvous;
        if (!p.Endpoint(addr_index, &rendezvous)) {
          return std::nullopt;
        }
        if (rendezvous.port == 0) {
          p.Fail("transport tcp rendezvous needs an explicit port (host:port)");
          return std::nullopt;
        }
        spec.transport.host = rendezvous.host;
        spec.transport.port = rendezvous.port;
      }
    } else if (directive == "node_program") {
      // Path to a dstress_node binary the driver execs one-per-bank (the
      // real deployment shape; required for HA auto-respawn).
      if (!p.ArgCount(1)) {
        return std::nullopt;
      }
      spec.transport.node_program = p.tokens[1];
    } else if (directive == "ha") {
      if (p.tokens.size() < 2) {
        p.Fail("ha needs a sub-directive (on, heartbeat_ms, suspect_after_ms, dead_after_ms,"
               " resume_timeout_ms, resume_buffer_mb, respawn, checkpoint_every,"
               " checkpoint_path, fault)");
        return std::nullopt;
      }
      net::HaSpec& ha = spec.transport.ha;
      const std::string& sub = p.tokens[1];
      if (sub == "on") {
        if (!p.ArgCount(1)) {
          return std::nullopt;
        }
        ha.enabled = true;
      } else if (sub == "heartbeat_ms" || sub == "suspect_after_ms" || sub == "dead_after_ms" ||
                 sub == "resume_timeout_ms" || sub == "resume_buffer_mb") {
        int v = 0;
        if (!p.ArgCount(2) || !p.Int(2, 1, &v)) {
          return std::nullopt;
        }
        ha.enabled = true;
        if (sub == "heartbeat_ms") {
          ha.heartbeat_ms = v;
        } else if (sub == "suspect_after_ms") {
          ha.suspect_after_ms = v;
        } else if (sub == "dead_after_ms") {
          ha.dead_after_ms = v;
        } else if (sub == "resume_timeout_ms") {
          ha.resume_timeout_ms = v;
        } else {
          ha.resume_buffer_bytes = static_cast<size_t>(v) << 20;
        }
      } else if (sub == "respawn") {
        if (p.tokens.size() != 3 || (p.tokens[2] != "on" && p.tokens[2] != "off")) {
          p.Fail("usage: ha respawn on|off");
          return std::nullopt;
        }
        ha.enabled = true;
        ha.auto_respawn = p.tokens[2] == "on";
      } else if (sub == "checkpoint_every") {
        // Checkpointing is orthogonal to the transport HA layer: it also
        // protects sim runs (driver restart with --resume), so it does not
        // flip ha.enabled.
        if (!p.ArgCount(2) || !p.Int(2, 1, &spec.ha_checkpoint_every)) {
          return std::nullopt;
        }
      } else if (sub == "checkpoint_path") {
        if (!p.ArgCount(2)) {
          return std::nullopt;
        }
        spec.ha_checkpoint_path = p.tokens[2];
      } else if (sub == "fault") {
        // `ha fault kill|drop_link <bank> after_sends <K>` /
        // `ha fault delay <ms> after_sends <K>` — the deterministic fault
        // schedule of `transport faulty` (ha::FaultyTransport).
        net::FaultSpec fault;
        int value = 0;
        int after = 0;
        if (p.tokens.size() != 6 || p.tokens[4] != "after_sends" || !p.Int(3, 0, &value) ||
            !p.Int(5, 1, &after)) {
          if (error->empty()) {
            p.Fail("usage: ha fault kill|drop_link <bank> after_sends <K>  or"
                   "  ha fault delay <ms> after_sends <K>");
          }
          return std::nullopt;
        }
        if (p.tokens[2] == "kill") {
          fault.action = net::FaultSpec::Action::kKillNode;
          fault.node = value;
        } else if (p.tokens[2] == "drop_link") {
          fault.action = net::FaultSpec::Action::kDropLink;
          fault.node = value;
        } else if (p.tokens[2] == "delay") {
          fault.action = net::FaultSpec::Action::kDelay;
          fault.delay_ms = value;
        } else {
          p.Fail("ha fault action must be 'kill', 'drop_link' or 'delay'");
          return std::nullopt;
        }
        fault.after_sends = static_cast<uint64_t>(after);
        spec.transport.faults.push_back(fault);
      } else {
        p.Fail("unknown ha sub-directive '" + sub + "'");
        return std::nullopt;
      }
    } else if (directive == "node") {
      int bank = 0;
      net::PeerEndpoint endpoint;
      if (!p.ArgCount(2) || !p.Int(1, 0, &bank) || !p.Endpoint(2, &endpoint)) {
        return std::nullopt;
      }
      if (bank < static_cast<int>(node_lines.size()) && node_lines[bank] != 0) {
        p.Fail("bank " + std::to_string(bank) + " already placed on line " +
               std::to_string(node_lines[bank]));
        return std::nullopt;
      }
      if (bank >= static_cast<int>(node_lines.size())) {
        node_lines.resize(bank + 1, 0);
        node_endpoints.resize(bank + 1);
      }
      node_lines[bank] = p.line_number;
      node_endpoints[bank] = std::move(endpoint);
    } else if (directive == "iterations") {
      if (!p.ArgCount(1) || !p.Int(1, 0, &spec.iterations)) {
        return std::nullopt;
      }
    } else if (directive == "degree_cap") {
      // Caps the generated topology's degree (graph::CapDegree), which also
      // bounds the public degree bound D baked into the update circuit.
      if (!p.ArgCount(1) || !p.Int(1, 1, &spec.topology.degree_cap)) {
        return std::nullopt;
      }
    } else if (directive == "block_size") {
      if (!p.ArgCount(1) || !p.Int(1, 2, &spec.block_size)) {
        return std::nullopt;
      }
    } else if (directive == "fanout") {
      if (!p.ArgCount(1) || !p.Int(1, 0, &spec.aggregation_fanout)) {
        return std::nullopt;
      }
      // fanout 1 would make the aggregation-tree reduction never shrink.
      if (spec.aggregation_fanout == 1) {
        p.Fail("fanout must be 0 (flat aggregation) or >= 2");
        return std::nullopt;
      }
    } else if (directive == "epsilon") {
      if (!p.ArgCount(1) || !p.Double(1, &spec.epsilon)) {
        return std::nullopt;
      }
      if (spec.epsilon <= 0) {
        p.Fail("epsilon must be positive");
        return std::nullopt;
      }
    } else if (directive == "leverage") {
      if (!p.ArgCount(1) || !p.Double(1, &spec.leverage)) {
        return std::nullopt;
      }
      if (spec.leverage <= 0 || spec.leverage > 1) {
        p.Fail("leverage must be in (0, 1]");
        return std::nullopt;
      }
    } else if (directive == "shock") {
      if (p.tokens.size() < 2) {
        p.Fail("shock needs at least one bank index");
        return std::nullopt;
      }
      for (size_t i = 1; i < p.tokens.size(); i++) {
        int bank = 0;
        if (!p.Int(i, 0, &bank)) {
          return std::nullopt;
        }
        // A duplicate entry would double-shock a bank silently; more likely
        // it is a typo in a long bank list, so reject it with the index.
        for (int existing : spec.shock.shocked_banks) {
          if (existing == bank) {
            p.Fail("duplicate shocked bank " + std::to_string(bank));
            return std::nullopt;
          }
        }
        spec.shock.shocked_banks.push_back(bank);
      }
    } else if (directive == "ensemble") {
      if (p.tokens.size() < 2) {
        p.Fail("ensemble needs a sub-directive (scenario, shock_draws, shock_magnitude_range,"
               " banks_per_draw, perturb_workload, budget)");
        return std::nullopt;
      }
      if (!spec.ensemble.has_value()) {
        spec.ensemble.emplace();
      }
      ensemble::EnsembleSpec& es = *spec.ensemble;
      const std::string& sub = p.tokens[1];
      if (sub == "scenario") {
        if (p.tokens.size() < 3) {
          p.Fail("usage: ensemble scenario <bank> [bank...]");
          return std::nullopt;
        }
        ensemble::Scenario scenario;
        scenario.shock.survival = spec.shock.survival;
        scenario.label = "scenario";
        for (size_t i = 2; i < p.tokens.size(); i++) {
          int bank = 0;
          if (!p.Int(i, 0, &bank)) {
            return std::nullopt;
          }
          for (int existing : scenario.shock.shocked_banks) {
            if (existing == bank) {
              p.Fail("duplicate shocked bank " + std::to_string(bank));
              return std::nullopt;
            }
          }
          scenario.shock.shocked_banks.push_back(bank);
          scenario.label += " " + p.tokens[i];
        }
        es.scenarios.push_back(std::move(scenario));
      } else if (sub == "shock_draws") {
        // "ensemble shock_draws <K> seed <S>"
        if (p.tokens.size() != 5 || p.tokens[3] != "seed") {
          p.Fail("usage: ensemble shock_draws <K> seed <S>");
          return std::nullopt;
        }
        int draws = 0;
        int draw_seed = 0;
        if (!p.Int(2, 1, &draws) || !p.Int(4, 0, &draw_seed)) {
          return std::nullopt;
        }
        es.shock_draws = draws;
        es.draw_seed = static_cast<uint64_t>(draw_seed);
      } else if (sub == "shock_magnitude_range") {
        if (p.tokens.size() != 4 || !p.Double(2, &es.magnitude_lo) ||
            !p.Double(3, &es.magnitude_hi)) {
          if (error->empty()) {
            p.Fail("usage: ensemble shock_magnitude_range <lo> <hi>");
          }
          return std::nullopt;
        }
        if (es.magnitude_lo < 0 || es.magnitude_hi > 1 || es.magnitude_lo > es.magnitude_hi) {
          p.Fail("shock_magnitude_range wants 0 <= lo <= hi <= 1");
          return std::nullopt;
        }
        es.has_magnitude_range = true;
      } else if (sub == "banks_per_draw") {
        if (p.tokens.size() != 3 || !p.Int(2, 1, &es.banks_per_draw)) {
          if (error->empty()) {
            p.Fail("usage: ensemble banks_per_draw <B>");
          }
          return std::nullopt;
        }
      } else if (sub == "perturb_workload") {
        if (p.tokens.size() != 3 || (p.tokens[2] != "on" && p.tokens[2] != "off")) {
          p.Fail("usage: ensemble perturb_workload on|off");
          return std::nullopt;
        }
        es.perturb_workload = p.tokens[2] == "on";
      } else if (sub == "budget") {
        if (p.tokens.size() != 3 || !p.Double(2, &es.epsilon_budget)) {
          if (error->empty()) {
            p.Fail("usage: ensemble budget <epsilon>");
          }
          return std::nullopt;
        }
        if (es.epsilon_budget <= 0) {
          p.Fail("ensemble budget must be positive");
          return std::nullopt;
        }
      } else {
        p.Fail("unknown ensemble sub-directive '" + sub + "'");
        return std::nullopt;
      }
    } else if (directive == "triples") {
      // Offline-phase source for secure mode: "dealer" (simulated offline
      // phase, fast, default) or "ot" (IKNP OT-extension triples — the real
      // protocol; ~100x slower, see docs/offline-phase.md).
      if (!p.ArgCount(1)) {
        return std::nullopt;
      }
      if (p.tokens[1] == "dealer") {
        spec.use_ot_triples = false;
      } else if (p.tokens[1] == "ot") {
        spec.use_ot_triples = true;
      } else {
        p.Fail("triples must be 'dealer' or 'ot'");
        return std::nullopt;
      }
    } else if (directive == "early_exit") {
      // Arena-plane convergence early exit: same released figure, fewer
      // metered communicate rounds once every vertex lane has converged.
      if (!p.ArgCount(1)) {
        return std::nullopt;
      }
      if (p.tokens[1] == "on") {
        spec.cleartext_early_exit = true;
      } else if (p.tokens[1] == "off") {
        spec.cleartext_early_exit = false;
      } else {
        p.Fail("early_exit must be 'on' or 'off'");
        return std::nullopt;
      }
    } else if (directive == "seed") {
      int s = 0;
      if (!p.ArgCount(1) || !p.Int(1, 0, &s)) {
        return std::nullopt;
      }
      spec.seed = static_cast<uint64_t>(s);
    } else {
      p.Fail("unknown directive '" + directive + "'");
      return std::nullopt;
    }
  }
  if (!saw_network) {
    *error = "scenario is missing a 'network' directive";
    return std::nullopt;
  }
  for (int bank : spec.shock.shocked_banks) {
    if (bank >= spec.topology.num_vertices) {
      *error = "shocked bank " + std::to_string(bank) + " out of range";
      return std::nullopt;
    }
  }
  if (spec.use_ot_triples && (spec.ha_checkpoint_every > 0 || spec.ha_resume)) {
    *error = "'triples ot' cannot be combined with HA checkpoint/resume"
             " (OT sessions hold unrewindable key state)";
    return std::nullopt;
  }
  if (spec.mode != engine::ExecutionMode::kSecure &&
      (spec.ha_checkpoint_every > 0 || !spec.ha_checkpoint_path.empty())) {
    *error = "'ha checkpoint_every' and 'ha checkpoint_path' require 'mode secure'"
             " (checkpoints snapshot the secure runtime's share arrays)";
    return std::nullopt;
  }
  if (spec.ensemble.has_value()) {
    const ensemble::EnsembleSpec& es = *spec.ensemble;
    if (es.scenarios.empty() && es.shock_draws == 0) {
      *error = "ensemble needs 'ensemble scenario' lines or 'ensemble shock_draws'";
      return std::nullopt;
    }
    if (!es.scenarios.empty() && es.shock_draws > 0) {
      *error = "ensemble cannot mix explicit 'ensemble scenario' lines with"
               " 'ensemble shock_draws'";
      return std::nullopt;
    }
    if (es.shock_draws == 0 && (es.has_magnitude_range || es.banks_per_draw > 0)) {
      *error = "ensemble draw knobs (shock_magnitude_range, banks_per_draw) require"
               " 'ensemble shock_draws'";
      return std::nullopt;
    }
    if (es.banks_per_draw > spec.topology.num_vertices) {
      *error = "ensemble banks_per_draw " + std::to_string(es.banks_per_draw) +
               " exceeds the network's " + std::to_string(spec.topology.num_vertices) + " banks";
      return std::nullopt;
    }
    for (const ensemble::Scenario& scenario : es.scenarios) {
      for (int bank : scenario.shock.shocked_banks) {
        if (bank >= spec.topology.num_vertices) {
          *error = "ensemble scenario bank " + std::to_string(bank) + " out of range";
          return std::nullopt;
        }
      }
    }
  }
  if (!node_endpoints.empty()) {
    // `node` directives describe a multi-machine deployment: the driver
    // waits for externally started dstress_node processes instead of
    // spawning its own.
    if (spec.transport.backend != "tcp") {
      *error = "'node' directives require 'transport tcp'";
      return std::nullopt;
    }
    if (spec.transport.port == 0) {
      *error = "'node' directives require 'transport tcp <host:port>' with a fixed"
               " rendezvous port (remote banks must know where to dial)";
      return std::nullopt;
    }
    if (static_cast<int>(node_endpoints.size()) > spec.topology.num_vertices) {
      *error = "node bank " + std::to_string(node_endpoints.size() - 1) + " out of range (" +
               std::to_string(spec.topology.num_vertices) + " banks)";
      return std::nullopt;
    }
    node_endpoints.resize(spec.topology.num_vertices);  // unnamed banks: any endpoint
    spec.transport.external_nodes = true;
    spec.transport.node_endpoints = std::move(node_endpoints);
  }
  if (!spec.transport.faults.empty() && spec.transport.backend != "faulty") {
    *error = "'ha fault' directives require 'transport faulty <sim|tcp>'";
    return std::nullopt;
  }
  for (const net::FaultSpec& fault : spec.transport.faults) {
    if (fault.action != net::FaultSpec::Action::kDelay &&
        fault.node >= spec.topology.num_vertices) {
      *error = "ha fault bank " + std::to_string(fault.node) + " out of range";
      return std::nullopt;
    }
  }
  if (spec.transport.ha.enabled &&
      spec.transport.ha.dead_after_ms < spec.transport.ha.suspect_after_ms) {
    *error = "ha dead_after_ms must be >= suspect_after_ms";
    return std::nullopt;
  }
  if (spec.ha_checkpoint_every > 0 && spec.ha_checkpoint_path.empty()) {
    *error = "'ha checkpoint_every' requires 'ha checkpoint_path <file>'";
    return std::nullopt;
  }
  return spec;
}

std::optional<engine::RunSpec> LoadScenarioFile(const std::string& path, std::string* error) {
  std::ifstream file(path);
  if (!file) {
    *error = "cannot open '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream contents;
  contents << file.rdbuf();
  return ParseScenario(contents.str(), error);
}

}  // namespace dstress::cli
