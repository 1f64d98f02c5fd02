#include "src/graphplane/plane.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/bits.h"
#include "src/common/check.h"

namespace dstress::graphplane {

namespace {

// Words of up to 64 lanes evaluated per pool task: keeps the per-task wire
// scratch (num_wires * chunk words) cache-resident, same sizing as the
// packed-share data plane's chunking.
constexpr size_t kWordsPerTask = 16;

// Bit 0 of each of the 8 state bytes at `bytes`, byte i as bit i (the
// `& 1` of a per-byte loop). The mask leaves bit 8i; the multiply moves it
// to bit 56 + i, and no two of the 64 partial products share a bit
// position, so no carry reaches the top byte. Byte i loads as bits
// 8i..8i+7 because the host is little-endian (src/common/bytes.h).
inline uint64_t GatherBit0(const uint8_t* bytes) {
  uint64_t x = 0;
  std::memcpy(&x, bytes, sizeof(x));
  return ((x & 0x0101010101010101ULL) * 0x0102040810204080ULL) >> 56;
}

}  // namespace

void InsertBits(Bytes* out, size_t bit_offset, uint64_t bits, int count) {
  if (count < 64) {
    bits &= (1ULL << count) - 1;
  }
  size_t byte = bit_offset / 8;
  const int shift = static_cast<int>(bit_offset % 8);
  (*out)[byte] |= static_cast<uint8_t>(bits << shift);
  for (int written = 8 - shift; written < count; written += 8) {
    (*out)[++byte] |= static_cast<uint8_t>(bits >> written);
  }
}

uint64_t ExtractBits(const Bytes& raw, size_t bit_offset, int count) {
  size_t byte = bit_offset / 8;
  const int shift = static_cast<int>(bit_offset % 8);
  uint64_t bits = raw[byte] >> shift;
  for (int got = 8 - shift; got < count; got += 8) {
    bits |= static_cast<uint64_t>(raw[++byte]) << got;
  }
  if (count < 64) {
    bits &= (1ULL << count) - 1;
  }
  return bits;
}

GraphPlane::GraphPlane(const graph::Graph& graph, const core::VertexProgram& program,
                       const circuit::EvalPlan& update_plan, core::WorkerPool* pool,
                       net::Transport* net, Options options)
    : graph_(graph),
      update_plan_(update_plan),
      pool_(pool),
      net_(net),
      n_(graph.num_vertices()),
      sb_(program.state_bits),
      mb_(program.message_bits),
      degree_bound_(program.degree_bound),
      num_scenarios_(options.num_scenarios),
      stride_(options.stride),
      session_base_(options.edge_session_base) {
  DSTRESS_CHECK(n_ > 0);
  DSTRESS_CHECK(num_scenarios_ >= 1 && num_scenarios_ <= 64);
  DSTRESS_CHECK(stride_ >= num_scenarios_ && stride_ <= 64);
  DSTRESS_CHECK((stride_ & (stride_ - 1)) == 0);  // power of two => divides 64
  DSTRESS_CHECK(update_plan_.num_inputs() ==
                static_cast<size_t>(sb_) + static_cast<size_t>(degree_bound_) * mb_);
  DSTRESS_CHECK(update_plan_.num_outputs() == update_plan_.num_inputs());

  lanes_ = static_cast<size_t>(n_) * stride_;
  words_ = (lanes_ + 63) / 64;
  group_mask_ = num_scenarios_ >= 64 ? ~0ULL : (1ULL << num_scenarios_) - 1;

  // CSR over Edges() order: out-neighbors are stored in insertion order, so
  // the global edge index of v's slot-th out-edge is out_start_[v] + slot.
  out_start_.resize(static_cast<size_t>(n_) + 1, 0);
  out_deg_.resize(static_cast<size_t>(n_), 0);
  for (int v = 0; v < n_; v++) {
    out_deg_[static_cast<size_t>(v)] = graph_.OutDegree(v);
    out_start_[static_cast<size_t>(v) + 1] =
        out_start_[static_cast<size_t>(v)] + static_cast<size_t>(graph_.OutDegree(v));
  }
  const size_t num_edges = out_start_[static_cast<size_t>(n_)];
  edge_dst_.reserve(num_edges);
  for (int v = 0; v < n_; v++) {
    edge_dst_.insert(edge_dst_.end(), graph_.OutNeighbors(v).begin(),
                     graph_.OutNeighbors(v).end());
  }
  edge_in_slot_ = graph::EdgeInSlots(graph_);

  valid_mask_.resize(words_, 0);
  for (size_t w = 0; w < words_; w++) {
    uint64_t mask = 0;
    for (int bit = 0; bit < 64; bit++) {
      const size_t lane = w * 64 + static_cast<size_t>(bit);
      if (lane >= lanes_) {
        break;
      }
      if (static_cast<int>(lane % static_cast<size_t>(stride_)) < num_scenarios_) {
        mask |= 1ULL << bit;
      }
    }
    valid_mask_[w] = mask;
  }

  const uint64_t payload_bytes =
      (static_cast<uint64_t>(mb_) * static_cast<uint64_t>(num_scenarios_) + 7) / 8;
  edge_delta_.resize(static_cast<size_t>(n_));
  for (int v = 0; v < n_; v++) {
    for (int slot = 0; slot < out_deg_[static_cast<size_t>(v)]; slot++) {
      const int dst = edge_dst_[out_start_[static_cast<size_t>(v)] + static_cast<size_t>(slot)];
      edge_delta_[static_cast<size_t>(v)].bytes_sent += payload_bytes;
      edge_delta_[static_cast<size_t>(v)].messages_sent += 1;
      edge_delta_[static_cast<size_t>(dst)].bytes_received += payload_bytes;
      edge_delta_[static_cast<size_t>(dst)].messages_received += 1;
    }
  }

  in_mat_ = mpc::PackedShareMatrix(update_plan_.num_inputs(), lanes_);
  out_msg_mat_ =
      mpc::PackedShareMatrix(static_cast<size_t>(degree_bound_) * mb_, lanes_);
  active_.resize(words_, 0);
  next_active_.resize(words_, 0);
  msg_dirty_.resize(words_ * static_cast<size_t>(degree_bound_), 0);
  Reset();
}

void GraphPlane::Reset() {
  // The state rows [0, state_bits) are left to PackStates, which writes
  // every word of them; a new plane's start at zero.
  std::fill(in_mat_.row(static_cast<size_t>(sb_)),
            in_mat_.data() + in_mat_.rows() * in_mat_.words_per_row(), 0);
  std::fill(out_msg_mat_.data(),
            out_msg_mat_.data() + out_msg_mat_.rows() * out_msg_mat_.words_per_row(), 0);
  std::fill(active_.begin(), active_.end(), 1);
  std::fill(next_active_.begin(), next_active_.end(), 0);
  std::fill(msg_dirty_.begin(), msg_dirty_.end(), 0);
  active_list_.clear();
  stats_ = Stats{};
}

void GraphPlane::PackStates(const std::vector<std::vector<mpc::BitVector>>& lanes, size_t first) {
  DSTRESS_CHECK(first + static_cast<size_t>(num_scenarios_) <= lanes.size());
  for (int s = 0; s < num_scenarios_; s++) {
    const std::vector<mpc::BitVector>& states = lanes[first + static_cast<size_t>(s)];
    DSTRESS_CHECK(static_cast<int>(states.size()) == n_);
    for (const mpc::BitVector& state : states) {
      DSTRESS_CHECK(static_cast<int>(state.size()) == sb_);
    }
  }
  // Each task packs its words' blocks of 64 lanes x 64 state rows: lane b
  // of word w enters block (w, row block) as word b, its state rows as
  // bits, and one transpose turns the block into the rows' lane words.
  const size_t row_blocks = (static_cast<size_t>(sb_) + 63) / 64;
  const size_t stride = static_cast<size_t>(stride_);
  const size_t num_tasks = (words_ + kWordsPerTask - 1) / kWordsPerTask;
  pool_->Run(num_tasks, [&](size_t task) {
    const size_t w0 = task * kWordsPerTask;
    const size_t cw = std::min(kWordsPerTask, words_ - w0);
    static thread_local std::vector<uint64_t> blocks;
    const size_t block_words = cw * row_blocks * 64;
    if (blocks.size() < block_words) blocks.resize(block_words);
    // Lanes past S or past the last vertex are never gathered: zero.
    std::fill_n(blocks.begin(), block_words, 0);
    // Scenario by scenario, so consecutive reads are one lane's states for
    // consecutive vertices (consecutive allocations). A stride divides 64,
    // so the task's lanes are exactly vertices [v0, v1) of every scenario.
    const size_t v0 = w0 * 64 / stride;
    const size_t v1 = std::min(static_cast<size_t>(n_), (w0 + cw) * 64 / stride);
    for (size_t s = 0; s < static_cast<size_t>(num_scenarios_); s++) {
      const std::vector<mpc::BitVector>& states = lanes[first + s];
      for (size_t v = v0; v < v1; v++) {
        const size_t lane = v * stride + s;
        uint64_t* block = &blocks[(lane / 64 - w0) * row_blocks * 64 + lane % 64];
        const uint8_t* bits = states[v].data();
        for (int r0 = 0; r0 < sb_; r0 += 64, block += 64) {
          const int rows = std::min(64, sb_ - r0);
          uint64_t word = 0;
          int r = 0;
          for (; r + 8 <= rows; r += 8) {
            word |= GatherBit0(bits + r0 + r) << r;
          }
          for (; r < rows; r++) {
            word |= static_cast<uint64_t>(bits[r0 + r] & 1) << r;
          }
          *block = word;
        }
      }
    }
    for (size_t k = 0; k < cw; k++) {
      for (size_t rb = 0; rb < row_blocks; rb++) {
        uint64_t* block = &blocks[(k * row_blocks + rb) * 64];
        TransposeBits64x64(block);
        const int r0 = static_cast<int>(rb) * 64;
        const int rows = std::min(64, sb_ - r0);
        for (int r = 0; r < rows; r++) {
          in_mat_.row(static_cast<size_t>(r0 + r))[w0 + k] = block[r];
        }
      }
    }
  });
}

void GraphPlane::ComputeStep() {
  active_list_.clear();
  for (size_t w = 0; w < words_; w++) {
    if (active_[w]) {
      active_list_.push_back(w);
    }
  }
  stats_.words_evaluated += active_list_.size();
  stats_.words_skipped += words_ - active_list_.size();
  std::fill(next_active_.begin(), next_active_.end(), 0);
  std::fill(msg_dirty_.begin(), msg_dirty_.end(), 0);
  if (active_list_.empty()) {
    return;
  }

  const size_t in_rows = update_plan_.num_inputs();
  const size_t out_rows = update_plan_.num_outputs();
  const size_t num_wires = update_plan_.num_wires();
  const int d = degree_bound_;
  const size_t num_tasks = (active_list_.size() + kWordsPerTask - 1) / kWordsPerTask;
  pool_->Run(num_tasks, [&](size_t task) {
    const size_t i0 = task * kWordsPerTask;
    const size_t cw = std::min(kWordsPerTask, active_list_.size() - i0);
    // Grow-only thread-local staging: the frontier's words are scattered,
    // so they are gathered into contiguous rows for EvalPacked and
    // scattered back. Buffers persist across iterations and runs (the pool
    // threads are persistent), so the hot loop allocates nothing once warm.
    static thread_local std::vector<uint64_t> in_buf;
    static thread_local std::vector<uint64_t> out_buf;
    static thread_local std::vector<uint64_t> scratch_buf;
    if (in_buf.size() < in_rows * cw) in_buf.resize(in_rows * cw);
    if (out_buf.size() < out_rows * cw) out_buf.resize(out_rows * cw);
    if (scratch_buf.size() < num_wires * cw) scratch_buf.resize(num_wires * cw);
    for (size_t r = 0; r < in_rows; r++) {
      const uint64_t* src = in_mat_.row(r);
      for (size_t k = 0; k < cw; k++) {
        in_buf[r * cw + k] = src[active_list_[i0 + k]];
      }
    }
    update_plan_.EvalPacked(in_buf.data(), cw, out_buf.data(), scratch_buf.data());
    for (size_t k = 0; k < cw; k++) {
      const size_t w = active_list_[i0 + k];
      const uint64_t valid = valid_mask_[w];
      // New state goes straight back into the input arena (the container
      // plane's out->in state copy, fused); a masked change re-activates
      // the word, since its next evaluation reads the changed state.
      uint64_t state_changed = 0;
      for (int r = 0; r < sb_; r++) {
        uint64_t* dst = &in_mat_.row(static_cast<size_t>(r))[w];
        const uint64_t value = out_buf[static_cast<size_t>(r) * cw + k];
        state_changed |= (*dst ^ value) & valid;
        *dst = value;
      }
      if (state_changed != 0) {
        next_active_[w] = 1;
      }
      // Out-messages land in the message arena; per-slot masked diffs
      // become the dirty set the communicate step delivers.
      for (int slot = 0; slot < d; slot++) {
        uint64_t changed = 0;
        for (int r = 0; r < mb_; r++) {
          const size_t msg_row = static_cast<size_t>(slot) * mb_ + static_cast<size_t>(r);
          uint64_t* dst = &out_msg_mat_.row(msg_row)[w];
          const uint64_t value = out_buf[(static_cast<size_t>(sb_) + msg_row) * cw + k];
          changed |= (*dst ^ value) & valid;
          *dst = value;
        }
        msg_dirty_[w * static_cast<size_t>(d) + static_cast<size_t>(slot)] = changed;
      }
    }
  });
}

void GraphPlane::CommunicateStep() {
  stats_.iterations++;
  if (net_->MeterSelfDelivered(edge_delta_)) {
    stats_.bulk_metered = true;
    DeliverDirtyGroups();
  } else {
    stats_.bulk_metered = false;
    SendAllEdges();
  }
  std::swap(active_, next_active_);
}

// In-arena delivery: only edges whose out-message changed at the last
// evaluation move bytes (invariant: after every CommunicateStep, each
// in-slot equals its source's current out-slot — both start at ⊥ and every
// change is delivered — so an unchanged out-message is already present at
// the receiver). Receivers of a changed message are re-activated.
void GraphPlane::DeliverDirtyGroups() {
  const int d = degree_bound_;
  for (size_t w : active_list_) {
    for (int slot = 0; slot < d; slot++) {
      uint64_t dirty = msg_dirty_[w * static_cast<size_t>(d) + static_cast<size_t>(slot)];
      while (dirty != 0) {
        const int bit = __builtin_ctzll(dirty);
        const size_t lane = w * 64 + static_cast<size_t>(bit);
        const size_t v = lane / static_cast<size_t>(stride_);
        const size_t group_lane = v * static_cast<size_t>(stride_);
        const int shift = static_cast<int>(group_lane & 63);
        dirty &= ~(group_mask_ << shift);
        if (slot >= out_deg_[v]) {
          continue;  // padded slot: the update emits it but no edge carries it
        }
        const size_t e = out_start_[v] + static_cast<size_t>(slot);
        const size_t dest_lane = static_cast<size_t>(edge_dst_[e]) * stride_;
        const size_t dest_word = dest_lane >> 6;
        const int dest_shift = static_cast<int>(dest_lane & 63);
        const size_t src_row0 = static_cast<size_t>(slot) * mb_;
        const size_t dst_row0 =
            static_cast<size_t>(sb_) + static_cast<size_t>(edge_in_slot_[e]) * mb_;
        for (int r = 0; r < mb_; r++) {
          const uint64_t bits =
              (out_msg_mat_.row(src_row0 + static_cast<size_t>(r))[w] >> shift) & group_mask_;
          uint64_t* dst = &in_mat_.row(dst_row0 + static_cast<size_t>(r))[dest_word];
          *dst = (*dst & ~(group_mask_ << dest_shift)) | (bits << dest_shift);
        }
        next_active_[dest_word] = 1;
        stats_.groups_delivered++;
      }
    }
  }
}

// Literal-send fallback (observer attached, or a non-sim wire): every edge
// carries its payload for real, byte-identical to the container plane —
// send-all then receive-all in global edge order, payload bit r*S+s =
// message bit r of scenario s. Receipt of a changed message re-activates
// the receiver; receipt of an identical one is a no-op either way.
void GraphPlane::SendAllEdges() {
  const int s_count = num_scenarios_;
  const size_t payload_bits = static_cast<size_t>(mb_) * static_cast<size_t>(s_count);
  const size_t payload_bytes = (payload_bits + 7) / 8;
  for (int v = 0; v < n_; v++) {
    const size_t lane = static_cast<size_t>(v) * stride_;
    const size_t w = lane >> 6;
    const int shift = static_cast<int>(lane & 63);
    for (int slot = 0; slot < out_deg_[static_cast<size_t>(v)]; slot++) {
      const size_t e = out_start_[static_cast<size_t>(v)] + static_cast<size_t>(slot);
      Bytes payload(payload_bytes, 0);
      for (int r = 0; r < mb_; r++) {
        const uint64_t bits =
            (out_msg_mat_.row(static_cast<size_t>(slot) * mb_ + static_cast<size_t>(r))[w] >>
             shift) &
            group_mask_;
        InsertBits(&payload, static_cast<size_t>(r) * static_cast<size_t>(s_count), bits,
                   s_count);
      }
      net_->Send(v, edge_dst_[e], std::move(payload), session_base_ | e);
    }
  }
  for (int v = 0; v < n_; v++) {
    for (int slot = 0; slot < out_deg_[static_cast<size_t>(v)]; slot++) {
      const size_t e = out_start_[static_cast<size_t>(v)] + static_cast<size_t>(slot);
      const int j = edge_dst_[e];
      Bytes raw = net_->Recv(j, v, session_base_ | e);
      DSTRESS_CHECK(raw.size() == payload_bytes);
      const size_t dest_lane = static_cast<size_t>(j) * stride_;
      const size_t dest_word = dest_lane >> 6;
      const int dest_shift = static_cast<int>(dest_lane & 63);
      const size_t dst_row0 =
          static_cast<size_t>(sb_) + static_cast<size_t>(edge_in_slot_[e]) * mb_;
      bool changed = false;
      for (int r = 0; r < mb_; r++) {
        const uint64_t bits =
            ExtractBits(raw, static_cast<size_t>(r) * static_cast<size_t>(s_count), s_count);
        uint64_t* dst = &in_mat_.row(dst_row0 + static_cast<size_t>(r))[dest_word];
        if (((*dst >> dest_shift) & group_mask_) != bits) {
          changed = true;
        }
        *dst = (*dst & ~(group_mask_ << dest_shift)) | (bits << dest_shift);
      }
      if (changed) {
        next_active_[dest_word] = 1;
        stats_.groups_delivered++;
      }
    }
  }
}

bool GraphPlane::AllConverged() const {
  for (uint8_t a : active_) {
    if (a) {
      return false;
    }
  }
  return true;
}

size_t GraphPlane::ActiveWords() const {
  size_t count = 0;
  for (uint8_t a : active_) {
    count += a ? 1 : 0;
  }
  return count;
}

mpc::BitVector GraphPlane::VertexState(int vertex, int scenario) const {
  DSTRESS_CHECK(vertex >= 0 && vertex < n_);
  DSTRESS_CHECK(scenario >= 0 && scenario < num_scenarios_);
  const size_t lane = static_cast<size_t>(vertex) * stride_ + static_cast<size_t>(scenario);
  mpc::BitVector state(static_cast<size_t>(sb_));
  for (int r = 0; r < sb_; r++) {
    state[static_cast<size_t>(r)] = in_mat_.Get(static_cast<size_t>(r), lane) ? 1 : 0;
  }
  return state;
}

uint64_t GraphPlane::StateLaneGroup(size_t row, int vertex, int count) const {
  return in_mat_.GetLaneGroup(row, static_cast<size_t>(vertex) * stride_, count);
}

mpc::PackedShareMatrix GraphPlane::EvalOverStates(const circuit::EvalPlan& plan) const {
  DSTRESS_CHECK(plan.num_inputs() == static_cast<size_t>(sb_));
  mpc::PackedShareMatrix out(plan.num_outputs(), lanes_);
  const size_t in_rows = plan.num_inputs();
  const size_t out_rows = plan.num_outputs();
  const size_t num_wires = plan.num_wires();
  const size_t num_tasks = (words_ + kWordsPerTask - 1) / kWordsPerTask;
  pool_->Run(num_tasks, [&](size_t task) {
    const size_t w0 = task * kWordsPerTask;
    const size_t cw = std::min(kWordsPerTask, words_ - w0);
    static thread_local std::vector<uint64_t> in_buf;
    static thread_local std::vector<uint64_t> out_buf;
    static thread_local std::vector<uint64_t> scratch_buf;
    if (in_buf.size() < in_rows * cw) in_buf.resize(in_rows * cw);
    if (out_buf.size() < out_rows * cw) out_buf.resize(out_rows * cw);
    if (scratch_buf.size() < num_wires * cw) scratch_buf.resize(num_wires * cw);
    for (size_t r = 0; r < in_rows; r++) {
      std::copy_n(in_mat_.row(r) + w0, cw, &in_buf[r * cw]);
    }
    plan.EvalPacked(in_buf.data(), cw, out_buf.data(), scratch_buf.data());
    for (size_t r = 0; r < out_rows; r++) {
      std::copy_n(&out_buf[r * cw], cw, out.row(r) + w0);
    }
  });
  return out;
}

std::vector<uint64_t> GraphPlane::ScenarioSums(const mpc::PackedShareMatrix& contrib,
                                               int agg_bits) const {
  DSTRESS_CHECK(agg_bits > 0 && agg_bits <= 64);
  DSTRESS_CHECK(contrib.rows() >= static_cast<size_t>(agg_bits));
  DSTRESS_CHECK(contrib.instances() == lanes_);
  std::vector<uint64_t> sums(static_cast<size_t>(num_scenarios_), 0);
  uint64_t block[64];
  for (size_t w = 0; w < words_; w++) {
    for (int b = 0; b < 64; b++) {
      block[b] = b < agg_bits ? contrib.row(static_cast<size_t>(b))[w] : 0;
    }
    TransposeBits64x64(block);
    uint64_t valid = valid_mask_[w];
    while (valid != 0) {
      const int bit = __builtin_ctzll(valid);
      valid &= valid - 1;
      const size_t lane = w * 64 + static_cast<size_t>(bit);
      sums[lane % static_cast<size_t>(stride_)] += block[bit];
    }
  }
  return sums;
}

}  // namespace dstress::graphplane
