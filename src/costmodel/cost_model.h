// Analytic scale-out model for Figure 6.
//
// The paper could not run 1,750 EC2 nodes, so §5.5 projects end-to-end cost
// from microbenchmark measurements under conservative assumptions (degree
// bound D = 100, block size 20, no overlap between a node's block
// computations, two-level aggregation tree of fan-in 100). This module
// reproduces that methodology: CalibrateBatched() measures per-operation
// costs of the code the runtime runs (per-AND GMW cost and traffic, per-
// bundle encryption cost, endpoint aggregation cost, per-column decryption
// cost), and Project() combines them with exact circuit AND-counts and
// exact wire formats into per-node time and traffic as functions of N
// and D. The Figure 6 bench validates the projection against real
// end-to-end runs and records its model error.
#ifndef SRC_COSTMODEL_COST_MODEL_H_
#define SRC_COSTMODEL_COST_MODEL_H_

#include <cstdint>
#include <string>

namespace dstress::costmodel {

struct MicroCosts {
  // GMW online evaluation, per AND gate, per block member (seconds).
  double seconds_per_and = 0;
  // GMW online traffic per AND gate per member (bytes; d+e bits to each of
  // k peers).
  double bytes_per_and = 0;
  // Transfer protocol per edge (seconds): one member's bundle encryption,
  // the source endpoint's aggregation + masking, the destination's
  // adjustment, one member's column decryption.
  double seconds_bundle_encrypt = 0;
  double seconds_source_endpoint = 0;
  double seconds_dest_adjust = 0;
  double seconds_column_decrypt = 0;
  // Building one edge certificate's fixed-base key tables (k+1 members x
  // L bits). Paid once per run per (member, out-edge certificate) and
  // amortized over all iterations' bundle encryptions; Project() charges it
  // separately from the per-iteration terms.
  double seconds_cert_table_build = 0;
  int calibrated_block_size = 0;
  int calibrated_message_bits = 0;

  std::string ToString() const;
};

// Measures the micro costs on this machine through the data planes the
// runtime runs: the MPC terms via the bitsliced packed-share engine
// (docs/packed-eval.md — `batch_width` independent instances of a
// multiplier-heavy circuit advance through the AND layers in one lockstep
// mpc::EvalBatchInstances call over a sim transport, whose metered bytes
// give bytes_per_and), and the transfer terms via the batched wire-level
// crypto engine (docs/transfer-crypto.md — fixed-base key tables,
// batch-affine bundle encryption, cached noise points, lockstep column
// decryption), plus the once-per-run certificate table build.
MicroCosts CalibrateBatched(int block_size, int message_bits, int batch_width);

struct ProjectionParams {
  int num_nodes = 1750;
  int degree_bound = 100;
  int block_size = 20;
  int iterations = 11;     // I = ceil(log2 N) for the US banking system
  int message_bits = 12;   // L
  int aggregation_fanout = 100;
  // AND-gate counts of the program circuits (obtained from the real
  // builders so the model tracks the implementation exactly).
  size_t update_and_gates = 0;
  size_t aggregate_and_gates_per_group = 0;  // leaf circuit, fan-in groups
  size_t combine_and_gates = 0;              // root circuit incl. noising
  int state_bits = 0;
  // AND-depths (= GMW communication rounds) of the same circuits; only used
  // by the wide-area projection, where every round pays an RTT.
  size_t update_and_depth = 0;
  size_t aggregate_and_depth = 0;
  size_t combine_and_depth = 0;
};

struct Projection {
  double init_seconds = 0;
  double compute_seconds = 0;
  double communicate_seconds = 0;
  double aggregate_seconds = 0;
  double total_seconds = 0;
  double traffic_bytes_per_node = 0;

  std::string ToString() const;
};

// Projects per-node wall-clock cost and average per-node traffic for a full
// run, under the paper's conservative serialization assumption (a node's
// k+1 block computations do not overlap).
Projection Project(const MicroCosts& costs, const ProjectionParams& params);

// Wide-area deployment model (the §5.3 caveat: "this would be different in
// a wide-area deployment"). On a LAN/in-process substrate, GMW round
// latency is negligible; across the Internet every AND-depth layer costs a
// round trip and every byte crosses a bounded uplink.
struct WanParams {
  double rtt_ms = 50;           // round trip between any two banks
  double bandwidth_mbps = 100;  // per-node uplink
};

// Project() plus WAN latency/bandwidth terms: per computation step each of
// a node's serialized block memberships pays update_and_depth RTTs, each
// communication step pays the transfer protocol's 3 one-way hops, the
// aggregation tree pays its two levels' depths, and all per-node traffic is
// pushed through the uplink. ProjectionParams must carry the *_and_depth
// fields for the latency terms to be counted.
Projection ProjectWan(const MicroCosts& costs, const ProjectionParams& params,
                      const WanParams& wan);

}  // namespace dstress::costmodel

#endif  // SRC_COSTMODEL_COST_MODEL_H_
