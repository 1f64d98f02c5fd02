#include "src/mpc/gmw.h"

#include <utility>

#include "src/common/bits.h"
#include "src/common/check.h"

namespace dstress::mpc {

GmwParty::GmwParty(net::Transport* net, std::vector<net::NodeId> parties, int my_index,
                   TripleSource* triples, net::SessionId session)
    : net_(net),
      parties_(std::move(parties)),
      my_index_(my_index),
      session_(session),
      triples_(triples) {
  DSTRESS_CHECK(my_index_ >= 0 && my_index_ < static_cast<int>(parties_.size()));
}

std::vector<uint64_t> GmwParty::ExchangeXor(const std::vector<uint64_t>& mine) {
  ByteWriter block;
  for (uint64_t w : mine) {
    block.U64(w);
  }
  const net::NodeId self = parties_[my_index_];
  for (net::NodeId peer : parties_) {
    if (peer != self) {
      net_->Send(self, peer, block.bytes(), session_);
    }
  }
  std::vector<uint64_t> total = mine;
  for (int p = 0; p < static_cast<int>(parties_.size()); p++) {
    if (p == my_index_) {
      continue;
    }
    Bytes incoming = net_->Recv(self, parties_[p], session_);
    DSTRESS_CHECK(incoming.size() == mine.size() * 8);
    ByteReader reader(incoming);
    for (size_t w = 0; w < total.size(); w++) {
      total[w] ^= reader.U64();
    }
  }
  return total;
}

BitVector GmwParty::Eval(const circuit::Circuit& circuit, const BitVector& input_shares) {
  circuit::EvalPlan plan(circuit);
  return Eval(plan, input_shares);
}

BitVector GmwParty::Eval(const circuit::EvalPlan& plan, const BitVector& input_shares) {
  PackedShareMatrix input(plan.num_inputs(), 1);
  input.SetInstance(0, input_shares);
  return EvalBatch(plan, input).Instance(0);
}

PackedShareMatrix GmwParty::EvalBatch(const circuit::EvalPlan& plan,
                                      const PackedShareMatrix& input_shares,
                                      BatchStats* stats) {
  const size_t w_count = input_shares.instances();
  DSTRESS_CHECK(w_count > 0);
  DSTRESS_CHECK(input_shares.rows() == plan.num_inputs());

  // One bulk draw covers every instance; slice j gets the contiguous range
  // [j*num_and, (j+1)*num_and), a split all parties derive identically.
  const size_t num_and = plan.stats().num_and;
  BitTriples bulk;
  if (num_and > 0) {
    bulk = triples_->Generate(num_and * w_count);
  }

  std::vector<BatchInstance> items(w_count);
  for (size_t j = 0; j < w_count; j++) {
    items[j].plan = &plan;
    items[j].parties = parties_;
    items[j].my_index = my_index_;
    if (num_and > 0) {
      items[j].triples = SliceTriples(bulk, j * num_and, num_and);
    }
    items[j].input_shares = input_shares.Instance(j);
    items[j].order_key = j;
  }
  std::vector<BitVector> outputs = EvalBatchInstances(net_, session_, std::move(items), stats);

  PackedShareMatrix result(plan.num_outputs(), w_count);
  for (size_t j = 0; j < w_count; j++) {
    result.SetInstance(j, outputs[j]);
  }
  return result;
}

BitVector GmwParty::Open(const BitVector& my_shares) {
  size_t n = my_shares.size();
  size_t words = PackedWords(n);
  std::vector<uint64_t> packed(words, 0);
  for (size_t i = 0; i < n; i++) {
    if (my_shares[i] & 1) {
      packed[i / 64] |= 1ULL << (i % 64);
    }
  }
  std::vector<uint64_t> opened = ExchangeXor(packed);
  BitVector out(n);
  for (size_t i = 0; i < n; i++) {
    out[i] = (opened[i / 64] >> (i % 64)) & 1;
  }
  return out;
}

}  // namespace dstress::mpc
