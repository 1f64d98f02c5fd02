#include "src/ot/base_ot.h"

#include <atomic>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/crypto/ec.h"
#include "src/crypto/fixed_base.h"
#include "src/crypto/sha256.h"

namespace dstress::ot {

namespace {

using crypto::AffinePoint;
using crypto::EcPoint;

std::atomic<uint64_t> g_base_ot_executions{0};

// H(i, P) over P's 33-byte compressed encoding.
OtKey DeriveKey(uint32_t index, const uint8_t* encoded) {
  crypto::Sha256 h;
  uint8_t idx[4];
  std::memcpy(idx, &index, 4);
  h.Update(idx, 4);
  h.Update(encoded, EcPoint::kCompressedSize);
  auto digest = h.Finish();
  OtKey key;
  std::memcpy(key.data(), digest.data(), key.size());
  return key;
}

}  // namespace

uint64_t BaseOtExecutionCount() { return g_base_ot_executions.load(std::memory_order_relaxed); }

BaseOtAnnouncement BaseOtAnnounce(net::Transport* net, net::NodeId self, net::NodeId peer,
                                  crypto::ChaCha20Prg& prg, net::SessionId session) {
  g_base_ot_executions.fetch_add(1, std::memory_order_relaxed);
  BaseOtAnnouncement out;
  out.a = prg.NextScalar(crypto::CurveOrder());
  const EcPoint big_a = crypto::MulBase(out.a);
  auto a_compressed = big_a.Compress();
  net->Send(self, peer, Bytes(a_compressed.begin(), a_compressed.end()), session);

  // a*(B_i - A) = a*B_i - a*A, so a*A is the only multiplication that does
  // not depend on the reply; it runs, in affine form, before the reply is
  // read.
  const EcPoint neg_a_big_a = big_a.Mul(out.a).Neg();
  EcPoint::ToAffineBatch(&neg_a_big_a, 1, &out.neg_a_big_a);
  return out;
}

BaseOtSenderOutput BaseOtFinish(net::Transport* net, net::NodeId self, net::NodeId peer,
                                const BaseOtAnnouncement& announced, int count,
                                net::SessionId session) {
  const size_t n = static_cast<size_t>(count);
  Bytes reply = net->Recv(self, peer, session);
  DSTRESS_CHECK(reply.size() == n * EcPoint::kCompressedSize);
  std::vector<AffinePoint> b_points(n);
  DSTRESS_CHECK(EcPoint::DecompressBatch(reply.data(), n, b_points.data()));

  // Every a*B_i in one lockstep walk over a's digits, then every
  // a*B_i - a*A in one batch addition; both are affine, so all 2n points
  // encode with no inversion.
  std::vector<AffinePoint> points0(n);
  crypto::MulVariableBases(b_points.data(), n, announced.a, points0.data());
  std::vector<AffinePoint> points1 = points0;
  const std::vector<AffinePoint> neg_a_big_a_lanes(n, announced.neg_a_big_a);
  crypto::BatchAddAssign(points1.data(), neg_a_big_a_lanes.data(), n);
  Bytes encoded0(n * EcPoint::kCompressedSize);
  Bytes encoded1(n * EcPoint::kCompressedSize);
  EcPoint::CompressAffine(points0.data(), n, encoded0.data());
  EcPoint::CompressAffine(points1.data(), n, encoded1.data());

  BaseOtSenderOutput out;
  out.keys0.reserve(n);
  out.keys1.reserve(n);
  for (size_t i = 0; i < n; i++) {
    const size_t offset = i * EcPoint::kCompressedSize;
    out.keys0.push_back(DeriveKey(static_cast<uint32_t>(i), encoded0.data() + offset));
    out.keys1.push_back(DeriveKey(static_cast<uint32_t>(i), encoded1.data() + offset));
  }
  return out;
}

BaseOtReceiverOutput BaseOtRecv(net::Transport* net, net::NodeId self, net::NodeId peer,
                                const std::vector<bool>& choices, crypto::ChaCha20Prg& prg,
                                net::SessionId session) {
  using crypto::CurveOrder;
  using crypto::MulBase;
  g_base_ot_executions.fetch_add(1, std::memory_order_relaxed);
  const size_t n = choices.size();

  Bytes announce = net->Recv(self, peer, session);
  DSTRESS_CHECK(announce.size() == EcPoint::kCompressedSize);
  auto big_a = EcPoint::Decompress(announce.data());
  DSTRESS_CHECK(big_a.has_value());

  std::vector<crypto::U256> secrets(n);
  std::vector<EcPoint> points(n);
  for (size_t i = 0; i < n; i++) {
    secrets[i] = prg.NextScalar(CurveOrder());
    points[i] = MulBase(secrets[i]);
    if (choices[i]) {
      points[i] = points[i].Add(*big_a);
    }
  }
  Bytes reply(n * EcPoint::kCompressedSize);
  EcPoint::CompressBatch(points.data(), n, reply.data());
  net->Send(self, peer, std::move(reply), session);

  // Every b_i multiplies the same point A: one table for A, and all the
  // products advance in lockstep with one shared inversion per window level.
  // The results are affine, so they encode without a further inversion.
  const crypto::FixedBaseTable table(*big_a);
  std::vector<crypto::FixedBaseTable::Recoding> recodings(n);
  for (size_t i = 0; i < n; i++) {
    recodings[i] = crypto::FixedBaseTable::Recode(secrets[i]);
  }
  std::vector<AffinePoint> products(n);
  crypto::MulBatch(table, recodings.data(), n, products.data());

  std::vector<uint8_t> encoded(n * EcPoint::kCompressedSize);
  EcPoint::CompressAffine(products.data(), n, encoded.data());
  BaseOtReceiverOutput out;
  out.keys.reserve(n);
  for (size_t i = 0; i < n; i++) {
    out.keys.push_back(
        DeriveKey(static_cast<uint32_t>(i), encoded.data() + i * EcPoint::kCompressedSize));
  }
  return out;
}

}  // namespace dstress::ot
