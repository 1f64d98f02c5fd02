#include "src/transfer/batch_engine.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/dp/samplers.h"
#include "src/net/channel.h"

namespace dstress::transfer {

namespace {

using crypto::AffinePoint;
using crypto::EcPoint;
using crypto::FixedBaseTable;

constexpr size_t kPoint = EcPoint::kCompressedSize;

// Serializes an affine point in the compressed wire format without the
// per-point inversion EcPoint::Compress() pays for Jacobian inputs.
void WriteAffine(const AffinePoint& p, uint8_t* out33) {
  if (p.infinity) {
    std::memset(out33, 0, kPoint);
    return;
  }
  out33[0] = p.y.IsOdd() ? 0x03 : 0x02;
  p.x.raw().ToBytesBe(out33 + 1);
}

// Sub-session of step `step` (0: bundles, 1: aggregate, 2: columns) of the
// edge transfer on `base`.
net::SessionId TransferSubSession(net::SessionId base, int step) {
  return base | (static_cast<net::SessionId>(step + 1) << 56);
}

const AffinePoint& GeneratorAffine() {
  static const AffinePoint g = [] {
    AffinePoint out;
    EcPoint::ToAffineBatch(&EcPoint::Generator(), 1, &out);
    return out;
  }();
  return g;
}

}  // namespace

EvenNoiseCache::EvenNoiseCache(int64_t half_range) {
  // A dense table of ±2t*G for t up to the lookup-table half-range (the
  // aggregation only ever needs masks the decrypt table can absorb), capped
  // so pathological ranges stay a few MB.
  constexpr int64_t kMaxSteps = int64_t{1} << 15;
  max_steps_ = std::max<int64_t>(0, std::min(half_range, kMaxSteps));
  const EcPoint two_g = EcPoint::Generator().Double();
  std::vector<EcPoint> chain(static_cast<size_t>(max_steps_) + 1);
  chain[0] = EcPoint::Infinity();
  for (int64_t t = 1; t <= max_steps_; t++) {
    chain[t] = chain[t - 1].Add(two_g);
  }
  pos_.resize(chain.size());
  EcPoint::ToAffineBatch(chain.data(), chain.size(), pos_.data());
  neg_.resize(pos_.size());
  for (size_t t = 0; t < pos_.size(); t++) {
    neg_[t] = pos_[t];
    if (!neg_[t].infinity) {
      neg_[t].y = neg_[t].y.Neg();
    }
  }
}

AffinePoint EvenNoiseCache::Get(int64_t even_mask) const {
  DSTRESS_CHECK(even_mask % 2 == 0);
  int64_t steps = (even_mask >= 0 ? even_mask : -even_mask) / 2;
  if (steps <= max_steps_) {
    return even_mask >= 0 ? pos_[static_cast<size_t>(steps)] : neg_[static_cast<size_t>(steps)];
  }
  EcPoint p = crypto::MulBase(crypto::EncodeExponent(even_mask));
  AffinePoint out;
  EcPoint::ToAffineBatch(&p, 1, &out);
  return out;
}

std::vector<Bytes> EncryptSubsharesWire(const std::vector<mpc::BitVector>& member_share_bits,
                                        const BlockCertificate& cert,
                                        std::vector<crypto::ChaCha20Prg>& prgs) {
  const int block_size = static_cast<int>(cert.keys.size());
  DSTRESS_CHECK(block_size >= 1);
  const int bits = static_cast<int>(cert.keys[0].size());
  const size_t senders = member_share_bits.size();
  DSTRESS_CHECK(prgs.size() == senders);
  auto tables = cert.Tables();

  // Per sender: PRG draws in seed order (subshare split, then the shared
  // ephemeral), one recoding shared by all of the sender's slots.
  std::vector<std::vector<mpc::BitVector>> subshares(senders);
  std::vector<crypto::U256> ephemerals(senders);
  std::vector<FixedBaseTable::Recoding> recodings(senders);
  for (size_t x = 0; x < senders; x++) {
    DSTRESS_CHECK(static_cast<int>(member_share_bits[x].size()) == bits);
    subshares[x] = mpc::ShareBits(member_share_bits[x], block_size, prgs[x]);
    ephemerals[x] = prgs[x].NextScalar(crypto::CurveOrder());
    recodings[x] = FixedBaseTable::Recode(ephemerals[x]);
  }

  // One lane per (sender, recipient, bit) slot. Each sender's slots share
  // one ephemeral, so a single MulShared sweep over the certificate's
  // window-major table set produces the sender's whole c2 burst.
  const size_t slots_per_sender = static_cast<size_t>(block_size) * bits;
  DSTRESS_CHECK(tables->set.num_keys() == slots_per_sender);
  std::vector<AffinePoint> lanes(senders * slots_per_sender);
  for (size_t x = 0; x < senders; x++) {
    tables->set.MulShared(recodings[x], lanes.data() + x * slots_per_sender);
  }

  // Fold the payload bits in: +G on every set subshare bit, one shared
  // inversion for the whole burst.
  std::vector<size_t> set_lanes;
  for (size_t x = 0; x < senders; x++) {
    for (int recipient = 0; recipient < block_size; recipient++) {
      for (int b = 0; b < bits; b++) {
        if (subshares[x][recipient][b] & 1) {
          set_lanes.push_back(x * slots_per_sender + recipient * bits + b);
        }
      }
    }
  }
  std::vector<AffinePoint> gen(set_lanes.size(), GeneratorAffine());
  crypto::BatchAddSelected(lanes.data(), set_lanes.data(), gen.data(), set_lanes.size());

  // Ephemeral components c1 = MulBase(ephemeral), compressed as a burst.
  std::vector<EcPoint> c1(senders);
  for (size_t x = 0; x < senders; x++) {
    c1[x] = crypto::MulBase(ephemerals[x]);
  }
  std::vector<uint8_t> c1_wire(senders * kPoint);
  EcPoint::CompressBatch(c1.data(), senders, c1_wire.data());

  std::vector<Bytes> out(senders);
  for (size_t x = 0; x < senders; x++) {
    out[x].resize((1 + slots_per_sender) * kPoint);
    std::memcpy(out[x].data(), c1_wire.data() + x * kPoint, kPoint);
    for (size_t s = 0; s < slots_per_sender; s++) {
      WriteAffine(lanes[x * slots_per_sender + s], out[x].data() + (1 + s) * kPoint);
    }
  }
  return out;
}

Bytes AggregateSubsharesWire(const std::vector<Bytes>& bundle_wires, const TransferParams& params,
                             crypto::ChaCha20Prg& prg, const EvenNoiseCache& noise) {
  DSTRESS_CHECK(static_cast<int>(bundle_wires.size()) == params.block_size);
  const size_t slots = static_cast<size_t>(params.block_size) * params.message_bits;
  for (const Bytes& wire : bundle_wires) {
    DSTRESS_CHECK(wire.size() == (1 + slots) * kPoint);
  }

  // c1: the few ephemeral components sum in Jacobian form.
  EcPoint c1 = EcPoint::Infinity();
  for (const Bytes& wire : bundle_wires) {
    auto p = EcPoint::Decompress(wire.data());
    DSTRESS_CHECK(p.has_value());
    c1 = c1.Add(*p);
  }

  // c2: accumulate bundle after bundle across all slots in lockstep (same
  // association order as the seed loop; the group value — and therefore the
  // compressed bytes — is order-independent anyway).
  std::vector<AffinePoint> acc(slots);
  std::vector<AffinePoint> bundle_slots(slots);
  DSTRESS_CHECK(EcPoint::DecompressBatch(bundle_wires[0].data() + kPoint, slots, acc.data()));
  for (size_t x = 1; x < bundle_wires.size(); x++) {
    DSTRESS_CHECK(
        EcPoint::DecompressBatch(bundle_wires[x].data() + kPoint, slots, bundle_slots.data()));
    crypto::BatchAddAssign(acc.data(), bundle_slots.data(), slots);
  }

  // Masks drawn in the seed's exact (recipient, bit) order, zero draws
  // skipped just like the seed path, points served from the cache.
  const double effective_alpha = params.EffectiveAlpha();
  std::vector<size_t> masked_lanes;
  std::vector<AffinePoint> mask_points;
  for (size_t s = 0; s < slots; s++) {
    int64_t mask = dp::EvenGeometricMask(prg, effective_alpha);
    if (mask != 0) {
      masked_lanes.push_back(s);
      mask_points.push_back(noise.Get(mask));
    }
  }
  crypto::BatchAddSelected(acc.data(), masked_lanes.data(), mask_points.data(),
                           masked_lanes.size());

  Bytes out((1 + slots) * kPoint);
  auto c1_wire = c1.Compress();
  std::memcpy(out.data(), c1_wire.data(), kPoint);
  for (size_t s = 0; s < slots; s++) {
    WriteAffine(acc[s], out.data() + (1 + s) * kPoint);
  }
  return out;
}

std::vector<Bytes> AdjustAndSplitWire(const Bytes& agg_wire, const crypto::U256& neighbor_key,
                                      const TransferParams& params) {
  const size_t slots = static_cast<size_t>(params.block_size) * params.message_bits;
  DSTRESS_CHECK(agg_wire.size() == (1 + slots) * kPoint);
  auto c1 = EcPoint::Decompress(agg_wire.data());
  DSTRESS_CHECK(c1.has_value());
  auto adjusted_wire = c1->Mul(neighbor_key).Compress();

  // Each recipient's c2 row is spliced out verbatim: the seed path's
  // decompress/re-compress round trip is the identity on valid encodings,
  // and validity is enforced where the points are consumed (the receivers).
  std::vector<Bytes> out(params.block_size);
  const size_t row = static_cast<size_t>(params.message_bits) * kPoint;
  for (int y = 0; y < params.block_size; y++) {
    out[y].resize(kPoint + row);
    std::memcpy(out[y].data(), adjusted_wire.data(), kPoint);
    std::memcpy(out[y].data() + kPoint, agg_wire.data() + kPoint + y * row, row);
  }
  return out;
}

bool RecoverSharesWire(const std::vector<Bytes>& column_wires,
                       const std::vector<const MemberKeys*>& member_keys,
                       const crypto::DlogTable& table, const TransferParams& params,
                       std::vector<mpc::BitVector>* shares_out) {
  const size_t members = column_wires.size();
  DSTRESS_CHECK(member_keys.size() == members);
  const int bits = params.message_bits;
  for (const Bytes& wire : column_wires) {
    DSTRESS_CHECK(wire.size() == (1 + static_cast<size_t>(bits)) * kPoint);
  }

  // Every column of the burst shares the edge's adjusted ephemeral c1, so
  // one fixed-base table serves all (member, bit) decryptions.
  for (size_t y = 1; y < members; y++) {
    DSTRESS_CHECK(std::memcmp(column_wires[y].data(), column_wires[0].data(), kPoint) == 0);
  }
  auto c1 = EcPoint::Decompress(column_wires[0].data());
  DSTRESS_CHECK(c1.has_value());
  FixedBaseTable c1_table(*c1);

  const size_t lanes_n = members * bits;
  std::vector<FixedBaseTable::Recoding> recodings(lanes_n);
  std::vector<crypto::MulTask> tasks(lanes_n);
  for (size_t y = 0; y < members; y++) {
    DSTRESS_CHECK(static_cast<int>(member_keys[y]->keys.size()) == bits);
    for (int b = 0; b < bits; b++) {
      recodings[y * bits + b] = FixedBaseTable::Recode(member_keys[y]->keys[b].secret);
      tasks[y * bits + b] = crypto::MulTask{&c1_table, &recodings[y * bits + b]};
    }
  }
  std::vector<AffinePoint> lanes(lanes_n);
  crypto::MulBatch(tasks.data(), lanes_n, lanes.data());
  // Decryption is c2 + (-secret*c1): negate, then add the c2 points.
  for (AffinePoint& p : lanes) {
    if (!p.infinity) {
      p.y = p.y.Neg();
    }
  }
  std::vector<AffinePoint> c2(lanes_n);
  for (size_t y = 0; y < members; y++) {
    DSTRESS_CHECK(EcPoint::DecompressBatch(column_wires[y].data() + kPoint, bits,
                                           c2.data() + y * bits));
  }
  crypto::BatchAddAssign(lanes.data(), c2.data(), lanes_n);

  // Bulk-compress the decrypted points and take parities via the table.
  std::vector<uint8_t> compressed(lanes_n * kPoint);
  for (size_t i = 0; i < lanes_n; i++) {
    WriteAffine(lanes[i], compressed.data() + i * kPoint);
  }
  shares_out->assign(members, mpc::BitVector(bits, 0));
  for (size_t y = 0; y < members; y++) {
    for (int b = 0; b < bits; b++) {
      int64_t sum = 0;
      if (!table.LookupCompressed(compressed.data() + (y * bits + b) * kPoint, &sum)) {
        return false;
      }
      (*shares_out)[y][b] = static_cast<uint8_t>(((sum % 2) + 2) % 2);
    }
  }
  return true;
}

void SendBundles(net::Transport* net, const std::vector<net::NodeId>& members_i,
                 net::NodeId node_i, net::SessionId session,
                 const std::vector<mpc::BitVector>& member_share_bits,
                 const BlockCertificate& cert, std::vector<crypto::ChaCha20Prg>& prgs) {
  DSTRESS_CHECK(members_i.size() == member_share_bits.size());
  std::vector<Bytes> bundles = EncryptSubsharesWire(member_share_bits, cert, prgs);
  for (size_t x = 0; x < members_i.size(); x++) {
    net->Send(members_i[x], node_i, std::move(bundles[x]), TransferSubSession(session, 0));
  }
}

void AggregateAtSource(net::Transport* net, net::NodeId node_i,
                       const std::vector<net::NodeId>& members_i, net::NodeId node_j,
                       net::SessionId session, const TransferParams& params,
                       crypto::ChaCha20Prg& prg, const EvenNoiseCache& noise) {
  std::vector<Bytes> bundles;
  bundles.reserve(members_i.size());
  for (net::NodeId member : members_i) {
    bundles.push_back(net->Recv(node_i, member, TransferSubSession(session, 0)));
  }
  net->Send(node_i, node_j, AggregateSubsharesWire(bundles, params, prg, noise),
            TransferSubSession(session, 1));
}

void AdjustAtDest(net::Transport* net, net::NodeId node_j, net::NodeId node_i,
                  const std::vector<net::NodeId>& members_j, net::SessionId session,
                  const crypto::U256& neighbor_key, const TransferParams& params) {
  Bytes agg = net->Recv(node_j, node_i, TransferSubSession(session, 1));
  std::vector<Bytes> columns = AdjustAndSplitWire(agg, neighbor_key, params);
  DSTRESS_CHECK(columns.size() == members_j.size());
  // Every column is ready before the first delivery; the Channel flushes
  // the whole fan-out as one burst.
  net::Channel fanout(net, node_j, members_j, TransferSubSession(session, 2));
  for (size_t y = 0; y < members_j.size(); y++) {
    fanout.Send(members_j[y], std::move(columns[y]));
  }
  fanout.Flush();
}

std::vector<mpc::BitVector> RecoverAtMembers(net::Transport* net,
                                             const std::vector<net::NodeId>& members_j,
                                             net::NodeId node_j, net::SessionId session,
                                             const std::vector<const MemberKeys*>& member_keys,
                                             const crypto::DlogTable& table,
                                             const TransferParams& params) {
  std::vector<Bytes> columns;
  columns.reserve(members_j.size());
  for (net::NodeId member : members_j) {
    columns.push_back(net->Recv(member, node_j, TransferSubSession(session, 2)));
  }
  std::vector<mpc::BitVector> shares;
  bool ok = RecoverSharesWire(columns, member_keys, table, params, &shares);
  DSTRESS_CHECK(ok);  // the Appendix B P_fail event
  return shares;
}

}  // namespace dstress::transfer
