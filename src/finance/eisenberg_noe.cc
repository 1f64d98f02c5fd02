#include "src/finance/eisenberg_noe.h"

#include <algorithm>

#include "src/common/check.h"

namespace dstress::finance {

namespace {

using circuit::Builder;
using circuit::Wire;
using circuit::Word;

// State layout (all words value_bits wide):
//   [cash][totalDebt][prorate][debts[0..D)][credits[0..D)]
// debts are out-slot aligned, credits in-slot aligned. prorate is a Q0.F
// word stored at value width (2^F == fully solvent).
int StateBits(const EnProgramParams& p) {
  return (3 + 2 * p.degree_bound) * p.format.value_bits;
}

Word Slice(const Word& state, int index, int width) {
  return Word(state.begin() + static_cast<long>(index) * width,
              state.begin() + static_cast<long>(index + 1) * width);
}

// Flat edge numbering. Out-edge e is Edges()[e], so u's s-th out-edge is
// out_start[u] + s; in-edges follow the in-lists, so v's d-th in-slot is
// in_start[v] + d. far[e] is out-edge e's index as an in-edge.
struct EdgeIndex {
  std::vector<size_t> out_start;  // [vertex + 1]
  std::vector<size_t> in_start;   // [vertex + 1]
  std::vector<size_t> far;        // [out-edge]
};

EdgeIndex IndexEdges(const graph::Graph& g) {
  const int n = g.num_vertices();
  EdgeIndex index;
  index.out_start.assign(static_cast<size_t>(n) + 1, 0);
  index.in_start.assign(static_cast<size_t>(n) + 1, 0);
  for (int v = 0; v < n; v++) {
    index.out_start[v + 1] = index.out_start[v] + g.OutDegree(v);
    index.in_start[v + 1] = index.in_start[v] + g.InDegree(v);
  }
  const std::vector<int> in_slots = graph::EdgeInSlots(g);
  index.far.resize(in_slots.size());
  size_t e = 0;
  for (int u = 0; u < n; u++) {
    for (int v : g.OutNeighbors(u)) {
      index.far[e] = index.in_start[v] + in_slots[e];
      e++;
    }
  }
  return index;
}

}  // namespace

uint64_t EnInstance::TotalDebtOf(int v) const {
  uint64_t total = 0;
  for (uint64_t d : debts[v]) {
    total += d;
  }
  return total;
}

core::VertexProgram MakeEnProgram(const EnProgramParams& params) {
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
    Word cash = Slice(state, 0, w);
    Word total_debt = Slice(state, 1, w);
    std::vector<Word> debts(d_bound), credits(d_bound);
    for (int d = 0; d < d_bound; d++) {
      debts[d] = Slice(state, 3 + d, w);
      credits[d] = Slice(state, 3 + d_bound + d, w);
    }

    // liquid = cash + sum over in-slots of the payment actually received:
    // credits[d] - shortfall[d], floored at zero. A wide accumulator
    // prevents wraparound; the final value saturates at the format maximum.
    const int wide = w + 8;
    DSTRESS_CHECK(d_bound < (1 << 8));
    Word liquid_wide = b.ZeroExtend(cash, wide);
    for (int d = 0; d < d_bound; d++) {
      const Word& shortfall = in_msgs[d];
      Wire under = b.Ult(credits[d], shortfall);
      Word paid = b.MuxWord(under, b.ConstWord(0, w), b.Sub(credits[d], shortfall));
      liquid_wide = b.Add(liquid_wide, b.ZeroExtend(paid, wide));
    }
    Wire overflow = b.Zero();
    for (int bit = w; bit < wide; bit++) {
      overflow = b.Or(overflow, liquid_wide[bit]);
    }
    Word liquid = b.MuxWord(overflow, b.ConstWord(format.MaxValue(), w),
                            b.Truncate(liquid_wide, w));

    // prorate = min(1.0, liquid / totalDebt). DivFixed saturates when
    // totalDebt == 0, so debt-free banks come out fully solvent.
    Word ratio = b.DivFixed(liquid, total_debt, f);
    Word prorate = b.ClampMax(ratio, b.ConstWord(format.One(), w));

    // New state: constants carry through, prorate is replaced.
    *new_state = cash;
    new_state->insert(new_state->end(), total_debt.begin(), total_debt.end());
    new_state->insert(new_state->end(), prorate.begin(), prorate.end());
    for (int d = 0; d < d_bound; d++) {
      new_state->insert(new_state->end(), debts[d].begin(), debts[d].end());
    }
    for (int d = 0; d < d_bound; d++) {
      new_state->insert(new_state->end(), credits[d].begin(), credits[d].end());
    }

    // Outgoing shortfall notices: debts[d] * (1 - prorate).
    Word unpaid_frac = b.Sub(b.ConstWord(format.One(), w), prorate);
    out_msgs->clear();
    for (int d = 0; d < d_bound; d++) {
      Word product = b.Mul(b.ZeroExtend(debts[d], w + f), b.ZeroExtend(unpaid_frac, w + f));
      Word shortfall = b.Truncate(b.ShiftRightConst(product, f), w);
      out_msgs->push_back(shortfall);
    }
  };

  const int agg_bits = params.aggregate_bits;
  program.build_contribution = [w, f, agg_bits, format](Builder& b, const Word& state) -> Word {
    Word total_debt = Slice(state, 1, w);
    Word prorate = Slice(state, 2, w);
    Word unpaid_frac = b.Sub(b.ConstWord(format.One(), w), prorate);
    Word product = b.Mul(b.ZeroExtend(total_debt, w + f), b.ZeroExtend(unpaid_frac, w + f));
    Word shortfall = b.Truncate(b.ShiftRightConst(product, f), w);
    return b.ZeroExtend(shortfall, agg_bits);
  };

  return program;
}

std::vector<mpc::BitVector> MakeEnInitialStates(const EnInstance& instance,
                                                const EnProgramParams& params) {
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
  auto put = [&](int v, int word, uint64_t value) {
    mpc::StoreWordBits(value, w, states[v].data() + static_cast<size_t>(word) * w);
  };
  const std::vector<int> in_slots = graph::EdgeInSlots(g);
  size_t e = 0;
  for (int u = 0; u < n; u++) {
    put(u, 0, params.format.SaturateValue(instance.cash[u]));
    put(u, 1, params.format.SaturateValue(instance.TotalDebtOf(u)));
    put(u, 2, params.format.One());  // prorate = 1.0
    // u's out-slot debt is also its creditor's in-slot credit.
    for (int s = 0; s < g.OutDegree(u); s++, e++) {
      const uint64_t debt = params.format.SaturateValue(instance.debts[u][s]);
      put(u, 3 + s, debt);
      put(g.OutNeighbors(u)[s], 3 + d_bound + in_slots[e], debt);
    }
  }
  return states;
}

uint64_t EnSolveFixed(const EnInstance& instance, const EnProgramParams& params,
                      std::vector<uint64_t>* prorate_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const FixedPointFormat& format = params.format;
  const uint64_t one = format.One();
  const uint64_t max_value = format.MaxValue();
  const EdgeIndex index = IndexEdges(g);

  // debt[e] is what out-edge e's source owes; credit[i] is what in-edge i's
  // destination is owed: the same word at the far end.
  std::vector<uint64_t> cash(n), total_debt(n);
  std::vector<uint64_t> debt(index.far.size()), credit(index.far.size());
  for (int v = 0; v < n; v++) {
    cash[v] = format.SaturateValue(instance.cash[v]);
    total_debt[v] = format.SaturateValue(instance.TotalDebtOf(v));
    for (int s = 0; s < g.OutDegree(v); s++) {
      const size_t e = index.out_start[v] + s;
      debt[e] = format.SaturateValue(instance.debts[v][s]);
      credit[index.far[e]] = debt[e];
    }
  }
  // shortfall[i]: the last shortfall notice received on in-edge i.
  std::vector<uint64_t> shortfall(index.far.size(), 0);
  std::vector<uint64_t> prorate(n, one);

  // Mirrors the runtime: iterations+1 computation steps with a
  // communication step between consecutive ones.
  for (int step = 0; step <= params.iterations; step++) {
    for (int v = 0; v < n; v++) {
      uint64_t liquid = cash[v];
      for (size_t i = index.in_start[v]; i < index.in_start[v + 1]; i++) {
        liquid += shortfall[i] > credit[i] ? 0 : credit[i] - shortfall[i];
      }
      liquid = std::min(liquid, max_value);
      uint64_t ratio =
          total_debt[v] == 0 ? one : (liquid << format.frac_bits) / total_debt[v];
      prorate[v] = std::min(ratio, one);
    }
    if (step == params.iterations) {
      break;
    }
    // Communication: every out-edge delivers its shortfall notice.
    for (int v = 0; v < n; v++) {
      const uint64_t unpaid_frac = one - prorate[v];
      for (size_t e = index.out_start[v]; e < index.out_start[v + 1]; e++) {
        shortfall[index.far[e]] = (debt[e] * unpaid_frac) >> format.frac_bits;
      }
    }
  }

  if (prorate_out != nullptr) {
    *prorate_out = prorate;
  }
  uint64_t tds = 0;
  for (int v = 0; v < n; v++) {
    tds += (total_debt[v] * (one - prorate[v])) >> format.frac_bits;
  }
  return tds;
}

double EnSolveExact(const EnInstance& instance, int iterations,
                    std::vector<double>* prorates_out) {
  const graph::Graph& g = *instance.graph;
  const int n = g.num_vertices();
  const EdgeIndex index = IndexEdges(g);
  std::vector<double> total_debt(n, 0.0);
  // owed[i]: the debt in-edge i carries, so v sums its in-slots in order.
  std::vector<double> owed(index.far.size());
  for (int v = 0; v < n; v++) {
    total_debt[v] = static_cast<double>(instance.TotalDebtOf(v));
    for (int s = 0; s < g.OutDegree(v); s++) {
      owed[index.far[index.out_start[v] + s]] = static_cast<double>(instance.debts[v][s]);
    }
  }
  std::vector<double> p(n, 1.0);
  for (int it = 0; it <= iterations; it++) {
    std::vector<double> next(n, 1.0);
    for (int v = 0; v < n; v++) {
      double liquid = static_cast<double>(instance.cash[v]);
      const std::vector<int>& in = g.InNeighbors(v);
      for (size_t d = 0; d < in.size(); d++) {
        liquid += owed[index.in_start[v] + d] * p[in[d]];
      }
      next[v] = total_debt[v] == 0 ? 1.0 : std::min(1.0, liquid / total_debt[v]);
    }
    p = next;
  }
  if (prorates_out != nullptr) {
    *prorates_out = p;
  }
  double tds = 0;
  for (int v = 0; v < n; v++) {
    tds += total_debt[v] * (1.0 - p[v]);
  }
  return tds;
}

}  // namespace dstress::finance
