// The DStress programming model (paper §3.1).
//
// A vertex program is (1) a graph, (2) per-vertex initial state and an
// update function, (3) an iteration count n, (4) an aggregation function,
// (5) a no-op message ⊥, and (6) a sensitivity bound. Because computation
// steps execute inside GMW, the update and aggregation functions are
// expressed as boolean-circuit builders rather than host code: the runtime
// instantiates one update circuit (identical for every vertex — vertex
// identity must not influence circuit shape, or the degree would leak) and
// one aggregation circuit.
//
// The aggregation function is restricted to a sum of per-vertex
// contributions. Both of the paper's case studies have this form (TDS is a
// sum over banks), and the restriction is what enables the hierarchical
// aggregation tree of §3.6.
#ifndef SRC_CORE_VERTEX_PROGRAM_H_
#define SRC_CORE_VERTEX_PROGRAM_H_

#include <functional>
#include <vector>

#include "src/circuit/builder.h"
#include "src/dp/noise_circuit.h"

namespace dstress::core {

struct VertexProgram {
  // Bit widths. message_bits is the L of the transfer protocol; the paper's
  // prototype uses 12-bit shares.
  int state_bits = 0;
  int message_bits = 12;
  // Public degree bound D: the update circuit always has D input and D
  // output message slots; unused slots carry the no-op message (all-zero).
  int degree_bound = 0;
  // Fixed number of (computation, communication) rounds before the final
  // computation step (§3.7: no data-dependent convergence checks).
  int iterations = 1;
  // Sensitivity bound s of the aggregate output (e.g. 1/r for
  // Eisenberg-Noe, 2/r for Elliott-Golub-Jackson, in output units).
  double sensitivity = 1.0;
  // Width of the aggregate output word (two's complement).
  int aggregate_bits = 32;

  // Builds the body of the update function: given the current state and D
  // incoming message words, define the new state and D outgoing messages.
  // Invoked once; the same circuit runs at every vertex.
  std::function<void(circuit::Builder& builder, const circuit::Word& state,
                     const std::vector<circuit::Word>& in_msgs, circuit::Word* new_state,
                     std::vector<circuit::Word>* out_msgs)>
      build_update;

  // Builds the per-vertex contribution to the aggregate (width
  // aggregate_bits, two's complement). The runtime sums contributions and
  // adds the DP noise inside the aggregation MPC.
  std::function<circuit::Word(circuit::Builder& builder, const circuit::Word& state)>
      build_contribution;

  // Discrete-Laplace output noise (added in-circuit). alpha should be
  // exp(-epsilon / sensitivity_in_output_units).
  dp::NoiseCircuitSpec output_noise;
};

// Builds the update circuit for `program`.
circuit::Circuit BuildUpdateCircuit(const VertexProgram& program);

// Builds an aggregation circuit summing `group_size` states' contributions;
// if `with_noise` is set, appends the geometric noise sampler (whose random
// bits become extra inputs, supplied by the aggregation-block members) and
// adds it to the sum. Output: one aggregate_bits-wide word.
circuit::Circuit BuildAggregateCircuit(const VertexProgram& program, int group_size,
                                       bool with_noise);

// Builds the combine circuit for the root of an aggregation tree: sums
// `num_partials` aggregate_bits-wide partial sums and adds noise.
circuit::Circuit BuildCombineCircuit(const VertexProgram& program, int num_partials,
                                     bool with_noise);

}  // namespace dstress::core

#endif  // SRC_CORE_VERTEX_PROGRAM_H_
