#include "src/mpc/batch_eval.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <numeric>

#include "src/common/bits.h"
#include "src/common/bytes.h"
#include "src/common/check.h"

namespace dstress::mpc {

namespace {

using circuit::Gate;
using circuit::GateOp;
using circuit::Wire;

// Instances sharing an evaluation plan, bitsliced into one share matrix:
// column c of every row is the c-th member instance's share of that wire.
struct Group {
  const circuit::EvalPlan* plan = nullptr;
  std::vector<size_t> members;  // indices into the sorted instance order
  PackedShareMatrix shares;     // num_wires x W
  // Triple shares in consumption (AND-layer round) order, wire-major like
  // the share matrix so the Beaver completion is pure word ops.
  PackedShareMatrix ta, tb, tc;  // num_and x W
  std::vector<uint64_t> leader_mask;  // bit c set iff member c is leader
  size_t triple_cursor = 0;
  // Current layer's masked openings, wire-major: rows [0, layer size) of
  // matrices sized once for the plan's widest AND layer.
  PackedShareMatrix d_rows, e_rows;
};

// One (executing node, peer) pair of directed channels and the sorted
// instances the two share. The run sent on `out` and the run expected on
// `in` both carry exactly these instances' openings, in sorted-instance
// order (the agreed per-channel message order).
struct ChannelPair {
  net::ChannelHandle out;  // self -> peer
  net::ChannelHandle in;   // peer -> self
  std::vector<size_t> shared;
  std::vector<uint32_t> sizes;  // this round's message sizes, both ways
};

void XorRows(const uint64_t* a, const uint64_t* b, uint64_t* z, size_t words) {
  for (size_t w = 0; w < words; w++) {
    z[w] = a[w] ^ b[w];
  }
}

// Below this many instances, row<->column moves use plain bit loops; at or
// above it, 64x64 block transposes (TransposeBits64x64) pay for themselves.
constexpr size_t kNarrowBatch = 4;

}  // namespace

std::vector<BitVector> EvalBatchInstances(net::Transport* net, net::SessionId session,
                                          std::vector<BatchInstance> instances,
                                          BatchStats* stats) {
  const size_t count = instances.size();
  if (count == 0) {
    return {};
  }

  // Deterministic cross-party instance order: ascending order_key. Results
  // are mapped back to the caller's order at the end.
  std::vector<size_t> sorted(count);
  std::iota(sorted.begin(), sorted.end(), 0);
  std::stable_sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
    return instances[a].order_key < instances[b].order_key;
  });

  // Group instances by plan; membership follows the sorted order.
  std::vector<Group> groups;
  std::map<const circuit::EvalPlan*, size_t> group_of_plan;
  std::vector<size_t> group_of(count), col_of(count);
  for (size_t s = 0; s < count; s++) {
    const BatchInstance& inst = instances[sorted[s]];
    DSTRESS_CHECK(inst.plan != nullptr);
    DSTRESS_CHECK(inst.my_index >= 0 &&
                  inst.my_index < static_cast<int>(inst.parties.size()));
    DSTRESS_CHECK(inst.input_shares.size() == inst.plan->num_inputs());
    auto [it, inserted] = group_of_plan.emplace(inst.plan, groups.size());
    if (inserted) {
      groups.emplace_back();
      groups.back().plan = inst.plan;
    }
    group_of[s] = it->second;
    col_of[s] = groups[it->second].members.size();
    groups[it->second].members.push_back(s);
  }

  // Channel pairs this call exchanges on, in (self, peer) order, with
  // their handles resolved once for every round.
  std::map<std::pair<net::NodeId, net::NodeId>, std::vector<size_t>> channel_instances;
  for (size_t s = 0; s < count; s++) {
    const BatchInstance& inst = instances[sorted[s]];
    net::NodeId inst_self = inst.parties[inst.my_index];
    for (net::NodeId p : inst.parties) {
      if (p != inst_self) {
        channel_instances[{inst_self, p}].push_back(s);
      }
    }
  }
  std::vector<ChannelPair> pairs;
  pairs.reserve(channel_instances.size());
  for (auto& [channel, shared] : channel_instances) {
    ChannelPair& pair = pairs.emplace_back();
    pair.out = net->OpenChannel(channel.first, channel.second, session);
    pair.in = net->OpenChannel(channel.second, channel.first, session);
    pair.shared = std::move(shared);
    pair.sizes.reserve(pair.shared.size());
  }

  size_t max_depth = 0;
  size_t triples_consumed = 0;
  for (Group& g : groups) {
    const circuit::EvalPlan& plan = *g.plan;
    const size_t w_count = g.members.size();
    const size_t num_and = plan.stats().num_and;
    max_depth = std::max(max_depth, plan.stats().and_depth);
    g.shares = PackedShareMatrix(plan.num_wires(), w_count);
    g.ta = PackedShareMatrix(num_and, w_count);
    g.tb = PackedShareMatrix(num_and, w_count);
    g.tc = PackedShareMatrix(num_and, w_count);
    size_t widest_layer = 0;
    for (const auto& layer : plan.and_layers()) {
      widest_layer = std::max(widest_layer, layer.size());
    }
    g.d_rows = PackedShareMatrix(widest_layer, w_count);
    g.e_rows = PackedShareMatrix(widest_layer, w_count);
    g.leader_mask.assign(g.shares.words_per_row(), 0);
    for (size_t c = 0; c < w_count; c++) {
      const BatchInstance& inst = instances[sorted[g.members[c]]];
      if (inst.my_index == 0) {
        g.leader_mask[c / 64] |= 1ULL << (c % 64);
      }
      DSTRESS_CHECK(inst.triples.count >= num_and || num_and == 0);
      triples_consumed += num_and;
    }
    // Transpose the per-instance triple tapes (bit t of instance c) into
    // the wire-major matrices (row t, lane c): 64x64 blocks for wide
    // batches, a plain bit loop for narrow ones (where a block transpose
    // would do 64 lanes of work for a handful of instances — the W=1 path
    // must stay as cheap as the seed schedule it reproduces).
    auto fill_triple_matrix = [&](PackedShareMatrix& dst, PackedBits BitTriples::*tape) {
      if (w_count <= kNarrowBatch) {
        for (size_t c = 0; c < w_count; c++) {
          const PackedBits& bits = instances[sorted[g.members[c]]].triples.*tape;
          for (size_t t = 0; t < num_and; t++) {
            dst.Set(t, c, GetBit(bits, t));
          }
        }
        return;
      }
      const size_t wpr = dst.words_per_row();
      const size_t tape_words = PackedWords(num_and);
      uint64_t block[64];
      for (size_t jb = 0; jb < wpr; jb++) {
        for (size_t wi = 0; wi < tape_words; wi++) {
          for (size_t j = 0; j < 64; j++) {
            size_t c = jb * 64 + j;
            block[j] =
                c < w_count ? (instances[sorted[g.members[c]]].triples.*tape)[wi] : 0;
          }
          TransposeBits64x64(block);
          size_t rows = std::min<size_t>(64, num_and - wi * 64);
          for (size_t r = 0; r < rows; r++) {
            dst.row(wi * 64 + r)[jb] = block[r];
          }
        }
      }
    };
    if (num_and > 0) {
      fill_triple_matrix(g.ta, &BitTriples::a);
      fill_triple_matrix(g.tb, &BitTriples::b);
      fill_triple_matrix(g.tc, &BitTriples::c);
    }
  }

  // Word-parallel evaluation of one round's free gates; CONST and NOT act
  // through the leader mask, so mixed leadership inside a group is fine.
  auto eval_local_layer = [&](Group& g, size_t round) {
    const circuit::EvalPlan& plan = *g.plan;
    if (round >= plan.local_layers().size()) {
      return;
    }
    const size_t words = g.shares.words_per_row();
    const auto& gates = plan.gates();
    for (Wire w : plan.local_layers()[round]) {
      const Gate& gate = gates[w];
      uint64_t* z = g.shares.row(w);
      switch (gate.op) {
        case GateOp::kInput:
          // Handled by the input prefill below; inputs are all depth 0.
          break;
        case GateOp::kConst:
          if (gate.a & 1) {
            std::copy(g.leader_mask.begin(), g.leader_mask.end(), z);
          }
          break;
        case GateOp::kXor:
          XorRows(g.shares.row(gate.a), g.shares.row(gate.b), z, words);
          break;
        case GateOp::kNot:
          XorRows(g.shares.row(gate.a), g.leader_mask.data(), z, words);
          break;
        case GateOp::kAnd:
          DSTRESS_CHECK(false);  // never in a local layer
          break;
      }
    }
  };

  for (Group& g : groups) {
    // Input prefill: the kInput gates are exactly local_layers()[0]'s input
    // entries, in circuit input order.
    size_t next_input = 0;
    for (Wire w : g.plan->local_layers()[0]) {
      if (g.plan->gates()[w].op != GateOp::kInput) {
        continue;
      }
      for (size_t c = 0; c < g.members.size(); c++) {
        g.shares.Set(w, c, instances[sorted[g.members[c]]].input_shares[next_input] & 1);
      }
      next_input++;
    }
    DSTRESS_CHECK(next_input == g.plan->num_inputs());
    eval_local_layer(g, 0);
  }

  // Per-instance opened d/e accumulators, per-instance layer sizes, and
  // one channel's outgoing and incoming run for the current round; hoisted
  // so their buffers are reused across rounds.
  std::vector<PackedBits> opened(count);
  std::vector<size_t> layer_size(count);
  Bytes run, incoming;
  size_t rounds = 0;

  for (size_t round = 1; round <= max_depth; round++) {
    bool any_exchange = false;

    // Mask this round's AND inputs with the triples and serialize each
    // instance's opening block in the wire format (batch_eval.h): d words
    // then e words, little-endian u64.
    for (Group& g : groups) {
      const circuit::EvalPlan& plan = *g.plan;
      if (round >= plan.and_layers().size() || plan.and_layers()[round].empty()) {
        continue;
      }
      any_exchange = true;
      const auto& layer = plan.and_layers()[round];
      const size_t n = layer.size();
      const size_t words = g.shares.words_per_row();
      for (size_t i = 0; i < n; i++) {
        const Gate& gate = plan.gates()[layer[i]];
        size_t t = g.triple_cursor + i;
        XorRows(g.shares.row(gate.a), g.ta.row(t), g.d_rows.row(i), words);
        XorRows(g.shares.row(gate.b), g.tb.row(t), g.e_rows.row(i), words);
      }
      const size_t lw = PackedWords(n);
      const size_t w_count = g.members.size();
      for (size_t c = 0; c < w_count; c++) {
        opened[g.members[c]].assign(2 * lw, 0);
      }
      // Transpose the layer's masked rows into each instance's wire-format
      // opening block: d words [0, lw), e words [lw, 2*lw).
      if (w_count <= kNarrowBatch) {
        for (size_t c = 0; c < w_count; c++) {
          PackedBits& acc = opened[g.members[c]];
          for (size_t i = 0; i < n; i++) {
            if (g.d_rows.Get(i, c)) {
              acc[i / 64] |= 1ULL << (i % 64);
            }
            if (g.e_rows.Get(i, c)) {
              acc[lw + i / 64] |= 1ULL << (i % 64);
            }
          }
        }
        continue;
      }
      uint64_t block[64];
      for (size_t jb = 0; jb < g.d_rows.words_per_row(); jb++) {
        for (size_t gb = 0; gb < lw; gb++) {
          size_t rows = std::min<size_t>(64, n - gb * 64);
          for (int which = 0; which < 2; which++) {
            const PackedShareMatrix& src = which == 0 ? g.d_rows : g.e_rows;
            for (size_t i = 0; i < 64; i++) {
              block[i] = i < rows ? src.row(gb * 64 + i)[jb] : 0;
            }
            TransposeBits64x64(block);
            for (size_t j = 0; j < 64 && jb * 64 + j < w_count; j++) {
              opened[g.members[jb * 64 + j]][which * lw + gb] = block[j];
            }
          }
        }
      }
    }
    if (any_exchange) {
      rounds++;
    }

    for (size_t s = 0; s < count; s++) {
      const circuit::EvalPlan& plan = *instances[sorted[s]].plan;
      layer_size[s] = round < plan.and_layers().size() ? plan.and_layers()[round].size() : 0;
    }

    // Superstep: all sends first (never blocking), then the receives. Each
    // channel carries this round's openings of its shared instances as one
    // run — each instance's block (little-endian u64 words) one message of
    // it — and the mirror channel's run is drained with every boundary
    // checked against the size this side expects.
    for (ChannelPair& pair : pairs) {
      pair.sizes.clear();
      run.clear();
      for (size_t s : pair.shared) {
        if (layer_size[s] == 0) {
          continue;
        }
        const auto* words = reinterpret_cast<const uint8_t*>(opened[s].data());
        pair.sizes.push_back(static_cast<uint32_t>(opened[s].size() * 8));
        run.insert(run.end(), words, words + opened[s].size() * 8);
      }
      if (!pair.sizes.empty()) {
        net->SendRun(pair.out, run, pair.sizes);
      }
    }
    for (ChannelPair& pair : pairs) {
      if (pair.sizes.empty()) {
        continue;
      }
      net->RecvRun(pair.in, pair.sizes, &incoming);
      const uint8_t* at = incoming.data();
      for (size_t s : pair.shared) {
        if (layer_size[s] == 0) {
          continue;
        }
        for (uint64_t& word : opened[s]) {
          uint64_t theirs;
          std::memcpy(&theirs, at, 8);
          word ^= theirs;
          at += 8;
        }
      }
    }

    // Beaver completion, word-parallel: z = c ^ d&b ^ e&a, plus d&e on the
    // leader lanes.
    for (Group& g : groups) {
      const circuit::EvalPlan& plan = *g.plan;
      if (round >= plan.and_layers().size() || plan.and_layers()[round].empty()) {
        continue;
      }
      const auto& layer = plan.and_layers()[round];
      const size_t n = layer.size();
      const size_t words = g.shares.words_per_row();
      // Transpose the opened bits back into wire-major rows.
      const size_t lw = PackedWords(n);
      const size_t w_count = g.members.size();
      if (w_count <= kNarrowBatch) {
        for (size_t c = 0; c < w_count; c++) {
          const PackedBits& acc = opened[g.members[c]];
          for (size_t i = 0; i < n; i++) {
            g.d_rows.Set(i, c, (acc[i / 64] >> (i % 64)) & 1);
            g.e_rows.Set(i, c, (acc[lw + i / 64] >> (i % 64)) & 1);
          }
        }
      } else {
        uint64_t block[64];
        for (size_t jb = 0; jb < g.d_rows.words_per_row(); jb++) {
          for (size_t gb = 0; gb < lw; gb++) {
            size_t rows = std::min<size_t>(64, n - gb * 64);
            for (int which = 0; which < 2; which++) {
              PackedShareMatrix& dst = which == 0 ? g.d_rows : g.e_rows;
              for (size_t j = 0; j < 64; j++) {
                size_t c = jb * 64 + j;
                block[j] = c < w_count ? opened[g.members[c]][which * lw + gb] : 0;
              }
              TransposeBits64x64(block);
              for (size_t i = 0; i < rows; i++) {
                dst.row(gb * 64 + i)[jb] = block[i];
              }
            }
          }
        }
      }
      for (size_t i = 0; i < n; i++) {
        size_t t = g.triple_cursor + i;
        const uint64_t* d = g.d_rows.row(i);
        const uint64_t* e = g.e_rows.row(i);
        uint64_t* z = g.shares.row(layer[i]);
        for (size_t w = 0; w < words; w++) {
          z[w] = g.tc.row(t)[w] ^ (d[w] & g.tb.row(t)[w]) ^ (e[w] & g.ta.row(t)[w]) ^
                 (d[w] & e[w] & g.leader_mask[w]);
        }
      }
      g.triple_cursor += n;
    }

    for (Group& g : groups) {
      eval_local_layer(g, round);
    }
  }

  if (stats != nullptr) {
    stats->rounds = rounds;
    stats->triples_consumed = triples_consumed;
  }

  std::vector<BitVector> outputs(count);
  for (size_t s = 0; s < count; s++) {
    const Group& g = groups[group_of[s]];
    const auto& outs = g.plan->outputs();
    BitVector out(outs.size());
    for (size_t o = 0; o < outs.size(); o++) {
      out[o] = g.shares.Get(outs[o], col_of[s]) ? 1 : 0;
    }
    outputs[sorted[s]] = std::move(out);
  }
  return outputs;
}

std::vector<std::vector<BitVector>> EvalBlock(net::Transport* net, net::SessionId session,
                                              const circuit::EvalPlan& plan,
                                              const std::vector<net::NodeId>& parties,
                                              const std::vector<std::vector<BitVector>>& shares,
                                              const std::vector<TripleSource*>& sources,
                                              BatchStats* stats) {
  const size_t num_parties = parties.size();
  DSTRESS_CHECK(sources.size() == num_parties);
  const size_t num_and = plan.stats().num_and;
  std::vector<BatchInstance> items;
  items.reserve(shares.size() * num_parties);
  for (size_t j = 0; j < shares.size(); j++) {
    DSTRESS_CHECK(shares[j].size() == num_parties);
    for (size_t p = 0; p < num_parties; p++) {
      BatchInstance& item = items.emplace_back();
      item.plan = &plan;
      item.parties = parties;
      item.my_index = static_cast<int>(p);
      if (num_and > 0) {
        item.triples = sources[p]->Generate(num_and);
      }
      item.input_shares = shares[j][p];
      item.order_key = j;
    }
  }
  std::vector<BitVector> flat = EvalBatchInstances(net, session, std::move(items), stats);
  std::vector<std::vector<BitVector>> outputs(shares.size());
  for (size_t j = 0; j < shares.size(); j++) {
    auto first = flat.begin() + static_cast<std::ptrdiff_t>(j * num_parties);
    outputs[j].assign(std::make_move_iterator(first),
                      std::make_move_iterator(first + static_cast<std::ptrdiff_t>(num_parties)));
  }
  return outputs;
}

}  // namespace dstress::mpc
