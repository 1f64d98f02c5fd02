#include "src/finance/elliott_golub_jackson.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::finance {

namespace {

using circuit::Builder;
using circuit::Wire;
using circuit::Word;

// State layout (all words value_bits wide):
//   [base][origVal][value][threshold][penalty][insh[0..D)][origValNbr[0..D)]
// insh words hold Q0.F fractions; origValNbr is the in-neighbor's initial
// valuation (the origVal[i][j] of Figure 2b).
int StateBits(const EgjProgramParams& p) {
  return (5 + 2 * p.degree_bound) * p.format.value_bits;
}

Word Slice(const Word& state, int index, int width) {
  return Word(state.begin() + static_cast<long>(index) * width,
              state.begin() + static_cast<long>(index + 1) * width);
}

}  // namespace

core::VertexProgram MakeEgjProgram(const EgjProgramParams& params) {
  DSTRESS_CHECK(params.degree_bound > 0);
  const int w = params.format.value_bits;
  const int f = params.format.frac_bits;
  DSTRESS_CHECK(f < w);

  core::VertexProgram program;
  program.state_bits = StateBits(params);
  program.message_bits = w;
  program.degree_bound = params.degree_bound;
  program.iterations = params.iterations;
  program.aggregate_bits = params.aggregate_bits;
  program.output_noise.alpha = params.noise_alpha;

  const int d_bound = params.degree_bound;
  const FixedPointFormat format = params.format;

  program.build_update = [w, f, d_bound, format](Builder& b, const Word& state,
                                                 const std::vector<Word>& in_msgs,
                                                 Word* new_state, std::vector<Word>* out_msgs) {
    Word base = Slice(state, 0, w);
    Word orig_val = Slice(state, 1, w);
    Word threshold = Slice(state, 3, w);
    Word penalty = Slice(state, 4, w);
    std::vector<Word> insh(d_bound), orig_nbr(d_bound);
    for (int d = 0; d < d_bound; d++) {
      insh[d] = Slice(state, 5 + d, w);
      orig_nbr[d] = Slice(state, 5 + d_bound + d, w);
    }

    Word one = b.ConstWord(format.One(), w);

    // value = base + sum_d insh[d] * (1 - discount_d) * origValNbr[d].
    const int wide = w + 8;
    DSTRESS_CHECK(d_bound < (1 << 8));
    Word value_wide = b.ZeroExtend(base, wide);
    for (int d = 0; d < d_bound; d++) {
      Word discount = b.ClampMax(in_msgs[d], one);
      Word remain = b.Sub(one, discount);
      Word nbr_value = b.Truncate(
          b.ShiftRightConst(
              b.Mul(b.ZeroExtend(orig_nbr[d], w + f), b.ZeroExtend(remain, w + f)), f),
          w);
      Word holding = b.Truncate(
          b.ShiftRightConst(b.Mul(b.ZeroExtend(insh[d], w + f), b.ZeroExtend(nbr_value, w + f)),
                            f),
          w);
      value_wide = b.Add(value_wide, b.ZeroExtend(holding, wide));
    }
    Wire overflow = b.Zero();
    for (int bit = w; bit < wide; bit++) {
      overflow = b.Or(overflow, value_wide[bit]);
    }
    Word value = b.MuxWord(overflow, b.ConstWord(format.MaxValue(), w),
                           b.Truncate(value_wide, w));

    // Distress penalty: if value < threshold, value -= penalty (floored 0).
    Wire failed = b.Ult(value, threshold);
    Wire penalty_underflow = b.Ult(value, penalty);
    Word after_penalty =
        b.MuxWord(penalty_underflow, b.ConstWord(0, w), b.Sub(value, penalty));
    value = b.MuxWord(failed, after_penalty, value);

    *new_state = base;
    new_state->insert(new_state->end(), orig_val.begin(), orig_val.end());
    new_state->insert(new_state->end(), value.begin(), value.end());
    new_state->insert(new_state->end(), threshold.begin(), threshold.end());
    new_state->insert(new_state->end(), penalty.begin(), penalty.end());
    for (int d = 0; d < d_bound; d++) {
      new_state->insert(new_state->end(), insh[d].begin(), insh[d].end());
    }
    for (int d = 0; d < d_bound; d++) {
      new_state->insert(new_state->end(), orig_nbr[d].begin(), orig_nbr[d].end());
    }

    // Broadcast discount: 1 - value/origVal (clamped into [0, 1]).
    Word ratio = b.ClampMax(b.DivFixed(value, orig_val, f), one);
    Word discount_out = b.Sub(one, ratio);
    out_msgs->assign(d_bound, discount_out);
  };

  const int agg_bits = params.aggregate_bits;
  program.build_contribution = [w, agg_bits](Builder& b, const Word& state) -> Word {
    Word value = Slice(state, 2, w);
    Word threshold = Slice(state, 3, w);
    Wire failed = b.Ult(value, threshold);
    Word gap = b.MuxWord(failed, b.Sub(threshold, value), b.ConstWord(0, w));
    return b.ZeroExtend(gap, agg_bits);
  };

  return program;
}

std::vector<mpc::BitVector> MakeEgjInitialStates(const EgjInstance& instance,
                                                 const EgjProgramParams& params) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const int w = params.format.value_bits;
  const int d_bound = params.degree_bound;
  // Slots are written by index, so no vertex may have more neighbors than D.
  DSTRESS_CHECK(g.MaxDegree() <= d_bound);
  // Every state is sized once, all zero (the padding slots), and its words
  // are written in place.
  std::vector<mpc::BitVector> states(static_cast<size_t>(n),
                                     mpc::BitVector(static_cast<size_t>(StateBits(params)), 0));
  for (int v = 0; v < n; v++) {
    uint8_t* state = states[v].data();
    auto put = [&](int word, uint64_t value) {
      mpc::StoreWordBits(params.format.SaturateValue(value), w,
                         state + static_cast<size_t>(word) * w);
    };
    put(0, instance.base[v]);
    put(1, instance.orig_val[v]);
    put(2, instance.orig_val[v]);  // value starts at the initial valuation
    put(3, instance.threshold[v]);
    put(4, instance.penalty[v]);
    const std::vector<int>& in = g.InNeighbors(v);
    for (int d = 0; d < static_cast<int>(in.size()); d++) {
      put(5 + d, instance.insh[v][d]);
      put(5 + d_bound + d, instance.orig_val[in[d]]);
    }
  }
  return states;
}

uint64_t EgjSolveFixed(const EgjInstance& instance, const EgjProgramParams& params,
                       std::vector<uint64_t>* values_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const int f = params.format.frac_bits;
  const uint64_t one = params.format.One();
  const uint64_t max_value = params.format.MaxValue();

  auto sat = [&](uint64_t v) { return params.format.SaturateValue(v); };

  // Per bank, saturated once; per in-edge (v's d-th in-slot is
  // in_start[v] + d), the issuer and the share held.
  std::vector<uint64_t> base(n), orig(n), threshold(n), penalty(n);
  std::vector<size_t> in_start(static_cast<size_t>(n) + 1, 0);
  std::vector<int> issuer;
  std::vector<uint64_t> share;
  issuer.reserve(static_cast<size_t>(g.num_edges()));
  share.reserve(static_cast<size_t>(g.num_edges()));
  for (int v = 0; v < n; v++) {
    base[v] = sat(instance.base[v]);
    orig[v] = sat(instance.orig_val[v]);
    threshold[v] = sat(instance.threshold[v]);
    penalty[v] = sat(instance.penalty[v]);
    const std::vector<int>& in = g.InNeighbors(v);
    in_start[v + 1] = in_start[v] + in.size();
    issuer.insert(issuer.end(), in.begin(), in.end());
    for (size_t d = 0; d < in.size(); d++) {
      share.push_back(sat(instance.insh[v][d]));
    }
  }
  // A bank sends the same discount on every out-edge, so the messages in
  // flight are one word per bank; none has arrived before the first step.
  std::vector<uint64_t> discount(n, 0);
  std::vector<uint64_t> value = orig;

  for (int step = 0; step <= params.iterations; step++) {
    for (int v = 0; v < n; v++) {
      uint64_t acc = base[v];
      for (size_t i = in_start[v]; i < in_start[v + 1]; i++) {
        uint64_t remain = one - std::min(discount[issuer[i]], one);
        uint64_t nbr_value = (orig[issuer[i]] * remain) >> f;
        acc += (share[i] * nbr_value) >> f;
      }
      acc = std::min(acc, max_value);
      if (acc < threshold[v]) {
        acc = acc < penalty[v] ? 0 : acc - penalty[v];
      }
      value[v] = acc;
    }
    if (step == params.iterations) {
      break;
    }
    // Communication: every bank broadcasts its discount to its holders.
    for (int v = 0; v < n; v++) {
      uint64_t ratio = orig[v] == 0 ? one : std::min(one, (value[v] << f) / orig[v]);
      discount[v] = one - ratio;
    }
  }

  if (values_out != nullptr) {
    *values_out = value;
  }
  uint64_t tds = 0;
  for (int v = 0; v < n; v++) {
    if (value[v] < threshold[v]) {
      tds += threshold[v] - value[v];
    }
  }
  return tds;
}

double EgjSolveExact(const EgjInstance& instance, int iterations,
                     const FixedPointFormat& fmt, std::vector<double>* values_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  std::vector<double> value(n);
  for (int v = 0; v < n; v++) {
    value[v] = static_cast<double>(instance.orig_val[v]);
  }
  for (int it = 0; it <= iterations; it++) {
    std::vector<double> next(n, 0.0);
    for (int v = 0; v < n; v++) {
      double acc = static_cast<double>(instance.base[v]);
      for (int d = 0; d < g.InDegree(v); d++) {
        int j = g.InNeighbors(v)[d];
        double share = fmt.FracToDouble(instance.insh[v][d]);
        acc += share * std::max(0.0, value[j]);
      }
      if (acc < static_cast<double>(instance.threshold[v])) {
        acc = std::max(0.0, acc - static_cast<double>(instance.penalty[v]));
      }
      next[v] = acc;
    }
    value = next;
  }
  if (values_out != nullptr) {
    *values_out = value;
  }
  double tds = 0;
  for (int v = 0; v < n; v++) {
    double thr = static_cast<double>(instance.threshold[v]);
    if (value[v] < thr) {
      tds += thr - value[v];
    }
  }
  return tds;
}

}  // namespace dstress::finance
