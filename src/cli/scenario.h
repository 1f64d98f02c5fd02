// Scenario files: a small text format that lets a regulator (or a test
// harness) describe a complete DStress stress test — network topology,
// contagion model, privacy parameters, shock, and execution mode — without
// writing C++. The parser is a thin front end: it produces an
// engine::RunSpec, which engine::Engine executes.
//
// Format: one directive per line, `#` starts a comment. Directives:
//
//   network core_periphery <N> <core_size>     (synthetic topologies)
//   network scale_free <N> <links_per_vertex>
//   network erdos_renyi <N> <edge_probability>
//   network explicit <N>                        (followed by `edge` lines)
//   network file <path>                         (edge-list file, src/graph/io.h)
//   edge <u> <v>                                (directed)
//   model <en|egj>                              (contagion model, §4.2/§4.3)
//   mode <secure|cleartext>                     (execution backend, default secure)
//   transport <sim|tcp> [host:port]             (wire backend, default sim; `tcp`
//                                                runs one process per bank, the
//                                                optional host:port fixes the
//                                                driver's rendezvous address — see
//                                                src/net/transport_spec.h)
//   node <bank> <host[:port]>                   (multi-machine deployment: bank
//                                                lives in an externally started
//                                                dstress_node at that endpoint;
//                                                any `node` line switches the
//                                                driver to waiting for remote
//                                                registrations instead of
//                                                spawning processes itself)
//   iterations <I>                              (0 = ceil(log2 N), App. C)
//   block_size <k+1>
//   fanout <F>                                  (aggregation tree fan-in; 0 = flat)
//   epsilon <eps_query>                         (§4.5 output privacy)
//   leverage <r>                                (sensitivity = 1/r or 2/r)
//   shock <bank> [bank ...]                     (assets wiped before run)
//   triples <dealer|ot>                         (secure-mode offline phase:
//                                                simulated dealer (default) or
//                                                real IKNP OT-extension
//                                                triples from the node-pair
//                                                factory — docs/offline-phase.md)
//   seed <s>
//
// Unknown directives, malformed arguments, out-of-range vertices and
// missing required fields are reported with line numbers.
#ifndef SRC_CLI_SCENARIO_H_
#define SRC_CLI_SCENARIO_H_

#include <optional>
#include <string>

#include "src/engine/run_spec.h"

namespace dstress::cli {

// Parses scenario text into a run spec. On failure returns std::nullopt and
// sets *error to a "line N: what" message.
std::optional<engine::RunSpec> ParseScenario(const std::string& text, std::string* error);

// Reads and parses a scenario file.
std::optional<engine::RunSpec> LoadScenarioFile(const std::string& path, std::string* error);

}  // namespace dstress::cli

#endif  // SRC_CLI_SCENARIO_H_
