// Precompiled evaluation plan for a boolean circuit.
//
// Both evaluation engines — GMW over XOR shares (src/mpc/batch_eval.h) and
// the cleartext graph plane (src/graphplane) — walk a circuit in
// the same layered order: the AND gates of communication round r, then the
// free gates (INPUT/CONST/XOR/NOT) that become computable at round r. The
// seed implementation re-derived that grouping on every Eval call; an
// EvalPlan computes it once per circuit and is reused across rounds,
// instances and runs.
//
// The plan also carries the word-parallel ("bitsliced") cleartext
// evaluator: W independent instances are packed instance-minor into 64-bit
// lanes (instance j lives at bit j%64 of word j/64 of every wire row), so
// one pass over the gate list evaluates up to 64 instances per word
// operation. This is the cleartext half of the packed-share data plane
// described in docs/packed-eval.md; the GMW half lives in
// src/mpc/batch_eval.h and consumes the same plan.
#ifndef SRC_CIRCUIT_EVAL_PLAN_H_
#define SRC_CIRCUIT_EVAL_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/circuit/circuit.h"

namespace dstress::circuit {

class EvalPlan {
 public:
  // Self-contained: copies the gate list and layer structure out of
  // `circuit`, so the plan stays valid independently of the Circuit
  // object's lifetime and the Circuit type keeps value semantics.
  explicit EvalPlan(const Circuit& circuit);

  size_t num_wires() const { return gates_.size(); }
  size_t num_inputs() const { return num_inputs_; }
  size_t num_outputs() const { return outputs_.size(); }
  const std::vector<Gate>& gates() const { return gates_; }
  const std::vector<Wire>& outputs() const { return outputs_; }
  const CircuitStats& stats() const { return stats_; }

  // Communication rounds: 1-based round r evaluates and_layers()[r] (one
  // exchange in GMW), then local_layers()[r]. Round 0 has only local gates.
  // Both vectors have stats().and_depth + 1 entries; wires inside a layer
  // are in topological (index) order.
  const std::vector<std::vector<Wire>>& and_layers() const { return and_layers_; }
  const std::vector<std::vector<Wire>>& local_layers() const { return local_layers_; }

  // Word-parallel cleartext evaluation of up to 64*words_per_row instances.
  // `inputs` holds num_inputs() rows of words_per_row words each
  // (instance-minor packing); `outputs` receives num_outputs() such rows.
  // Lanes beyond the caller's real instance count hold garbage — callers
  // extract only the lanes they packed.
  void EvalPacked(const uint64_t* inputs, size_t words_per_row, uint64_t* outputs) const;

  // As above with a caller-provided wire scratch of num_wires() *
  // words_per_row words, for hot loops that evaluate the same plan many
  // times (the ensemble plane re-evaluates per 16-word chunk). The scratch
  // may be uninitialized: gates are written in topological order before any
  // reader, and lanes beyond the real instance count are garbage either way.
  void EvalPacked(const uint64_t* inputs, size_t words_per_row, uint64_t* outputs,
                  uint64_t* scratch) const;

 private:
  std::vector<Gate> gates_;
  std::vector<Wire> outputs_;
  size_t num_inputs_ = 0;
  CircuitStats stats_;
  std::vector<std::vector<Wire>> and_layers_;
  std::vector<std::vector<Wire>> local_layers_;
};

}  // namespace dstress::circuit

#endif  // SRC_CIRCUIT_EVAL_PLAN_H_
