#include "src/transfer/transfer.h"

#include <cmath>

#include "src/common/check.h"
#include "src/dp/edge_privacy.h"
#include "src/dp/samplers.h"

namespace dstress::transfer {

namespace {

using crypto::EcPoint;

void WritePoint(ByteWriter& writer, const EcPoint& point) {
  auto compressed = point.Compress();
  writer.Raw(compressed.data(), compressed.size());
}

EcPoint ReadPoint(ByteReader& reader) {
  uint8_t raw[EcPoint::kCompressedSize];
  reader.Raw(raw, sizeof(raw));
  auto point = EcPoint::Decompress(raw);
  DSTRESS_CHECK(point.has_value());
  return *point;
}

}  // namespace

double TransferParams::EffectiveAlpha() const {
  return std::pow(budget_alpha, 2.0 / block_size);
}

int64_t TransferParams::RecommendedDlogRange(double max_failure_probability) const {
  // The mask is 2·Y with Y two-sided geometric. RequiredLookupEntries
  // returns N_l with P(|Y| > ceil(N_l/2)) <= p, so the table must absorb
  // |2·Y| <= 2·ceil(N_l/2) plus the raw bit sum, which lies in
  // [0, block_size].
  const int64_t entries = dp::RequiredLookupEntries(EffectiveAlpha(), max_failure_probability);
  return 2 * ((entries + 1) / 2) + block_size;
}

BlockKeys TransferSetup(int block_size, int message_bits, crypto::ChaCha20Prg& prg) {
  BlockKeys out;
  out.members.resize(block_size);
  for (auto& member : out.members) {
    member.keys.reserve(message_bits);
    for (int b = 0; b < message_bits; b++) {
      member.keys.push_back(crypto::ElGamalKeyGen(prg));
    }
  }
  return out;
}

BlockPublicKeys PublicKeysOf(const BlockKeys& keys) {
  BlockPublicKeys out;
  out.reserve(keys.members.size());
  for (const auto& member : keys.members) {
    std::vector<crypto::ElGamalPublicKey> row;
    row.reserve(member.keys.size());
    for (const auto& kp : member.keys) {
      row.push_back(kp.pub);
    }
    out.push_back(std::move(row));
  }
  return out;
}

BlockCertificate MakeBlockCertificate(const BlockPublicKeys& publics, const crypto::U256& r) {
  std::vector<EcPoint> points;
  for (const auto& member : publics) {
    for (const auto& pub : member) {
      points.push_back(pub.point);
    }
  }
  std::vector<crypto::AffinePoint> bases(points.size());
  std::vector<crypto::AffinePoint> blinded(points.size());
  EcPoint::ToAffineBatch(points.data(), points.size(), bases.data());
  crypto::MulVariableBases(bases.data(), bases.size(), r, blinded.data());

  BlockCertificate cert;
  cert.keys.reserve(publics.size());
  const crypto::AffinePoint* next = blinded.data();
  for (const auto& member : publics) {
    std::vector<crypto::ElGamalPublicKey> row;
    row.reserve(member.size());
    for (size_t b = 0; b < member.size(); b++) {
      row.push_back(crypto::ElGamalPublicKey{EcPoint::FromAffinePoint(*next++)});
    }
    cert.keys.push_back(std::move(row));
  }
  return cert;
}

Bytes BlockCertificate::Serialize() const {
  ByteWriter writer;
  writer.U32(static_cast<uint32_t>(keys.size()));
  writer.U32(keys.empty() ? 0 : static_cast<uint32_t>(keys[0].size()));
  for (const auto& member : keys) {
    for (const auto& pub : member) {
      WritePoint(writer, pub.point);
    }
  }
  return writer.Take();
}

BlockCertificate BlockCertificate::Deserialize(const Bytes& raw) {
  ByteReader reader(raw);
  uint32_t members = reader.U32();
  uint32_t bits = reader.U32();
  BlockCertificate cert;
  cert.keys.resize(members);
  for (auto& member : cert.keys) {
    member.reserve(bits);
    for (uint32_t b = 0; b < bits; b++) {
      member.push_back(crypto::ElGamalPublicKey{ReadPoint(reader)});
    }
  }
  return cert;
}

std::shared_ptr<const CertTables> BlockCertificate::Tables() const {
  auto cached = std::atomic_load_explicit(&tables_cache_, std::memory_order_acquire);
  if (cached) {
    return cached;
  }
  auto built = std::make_shared<CertTables>();
  built->block_size = static_cast<int>(keys.size());
  built->message_bits = keys.empty() ? 0 : static_cast<int>(keys[0].size());
  std::vector<crypto::EcPoint> bases;
  bases.reserve(static_cast<size_t>(built->block_size) * built->message_bits);
  for (const auto& member : keys) {
    for (const auto& pub : member) {
      bases.push_back(pub.point);
    }
  }
  built->set = crypto::FixedBaseTableSet::Build(bases);
  std::shared_ptr<const CertTables> expected;
  std::shared_ptr<const CertTables> desired = built;
  if (std::atomic_compare_exchange_strong(&tables_cache_, &expected, desired)) {
    return desired;
  }
  return expected;
}

size_t SubshareBundle::SerializedSize() const {
  size_t slots = 0;
  for (const auto& row : c2) {
    slots += row.size();
  }
  return (1 + slots) * EcPoint::kCompressedSize;
}

Bytes SubshareBundle::Serialize() const {
  ByteWriter writer;
  WritePoint(writer, c1);
  for (const auto& row : c2) {
    for (const auto& point : row) {
      WritePoint(writer, point);
    }
  }
  return writer.Take();
}

SubshareBundle SubshareBundle::Deserialize(const Bytes& raw, int block_size, int message_bits) {
  ByteReader reader(raw);
  SubshareBundle out;
  out.c1 = ReadPoint(reader);
  out.c2.resize(block_size);
  for (auto& row : out.c2) {
    row.reserve(message_bits);
    for (int b = 0; b < message_bits; b++) {
      row.push_back(ReadPoint(reader));
    }
  }
  DSTRESS_CHECK(reader.AtEnd());
  return out;
}

Bytes AggregatedColumns::Serialize() const {
  ByteWriter writer;
  WritePoint(writer, c1);
  for (const auto& row : c2) {
    for (const auto& point : row) {
      WritePoint(writer, point);
    }
  }
  return writer.Take();
}

AggregatedColumns AggregatedColumns::Deserialize(const Bytes& raw, int block_size,
                                                 int message_bits) {
  ByteReader reader(raw);
  AggregatedColumns out;
  out.c1 = ReadPoint(reader);
  out.c2.resize(block_size);
  for (auto& row : out.c2) {
    row.reserve(message_bits);
    for (int b = 0; b < message_bits; b++) {
      row.push_back(ReadPoint(reader));
    }
  }
  DSTRESS_CHECK(reader.AtEnd());
  return out;
}

Bytes MemberColumn::Serialize() const {
  ByteWriter writer;
  WritePoint(writer, c1);
  for (const auto& point : c2) {
    WritePoint(writer, point);
  }
  return writer.Take();
}

MemberColumn MemberColumn::Deserialize(const Bytes& raw, int message_bits) {
  ByteReader reader(raw);
  MemberColumn out;
  out.c1 = ReadPoint(reader);
  out.c2.reserve(message_bits);
  for (int b = 0; b < message_bits; b++) {
    out.c2.push_back(ReadPoint(reader));
  }
  DSTRESS_CHECK(reader.AtEnd());
  return out;
}

SubshareBundle EncryptSubshares(const mpc::BitVector& share_bits, const BlockCertificate& cert,
                                crypto::ChaCha20Prg& prg) {
  int block_size = static_cast<int>(cert.keys.size());
  int bits = static_cast<int>(share_bits.size());
  DSTRESS_CHECK(block_size >= 1);
  DSTRESS_CHECK(!cert.keys[0].empty() && static_cast<int>(cert.keys[0].size()) == bits);

  // Split the L-bit share into block_size XOR subshares.
  std::vector<mpc::BitVector> subshares = mpc::ShareBits(share_bits, block_size, prg);

  // One ephemeral scalar across all (recipient, bit) slots — the Kurosawa
  // optimization. Each slot's payload is 0 or 1 in the exponent.
  crypto::U256 ephemeral = prg.NextScalar(crypto::CurveOrder());
  SubshareBundle bundle;
  bundle.c1 = crypto::MulBase(ephemeral);
  bundle.c2.resize(block_size);
  const EcPoint g = EcPoint::Generator();
  for (int recipient = 0; recipient < block_size; recipient++) {
    bundle.c2[recipient].reserve(bits);
    for (int b = 0; b < bits; b++) {
      EcPoint masked = cert.keys[recipient][b].point.Mul(ephemeral);
      if (subshares[recipient][b] & 1) {
        masked = masked.Add(g);
      }
      bundle.c2[recipient].push_back(masked);
    }
  }
  return bundle;
}

AggregatedColumns AggregateSubshares(const std::vector<SubshareBundle>& bundles,
                                     const TransferParams& params, crypto::ChaCha20Prg& prg) {
  DSTRESS_CHECK(static_cast<int>(bundles.size()) == params.block_size);
  AggregatedColumns agg;
  agg.c1 = EcPoint::Infinity();
  agg.c2.assign(params.block_size, std::vector<EcPoint>(params.message_bits, EcPoint::Infinity()));
  for (const auto& bundle : bundles) {
    agg.c1 = agg.c1.Add(bundle.c1);
    for (int recipient = 0; recipient < params.block_size; recipient++) {
      for (int b = 0; b < params.message_bits; b++) {
        agg.c2[recipient][b] = agg.c2[recipient][b].Add(bundle.c2[recipient][b]);
      }
    }
  }
  // Mask every bit sum with an even two-sided-geometric draw. Even noise
  // preserves the parity that encodes the XOR of the subshare bits.
  double effective_alpha = params.EffectiveAlpha();
  for (int recipient = 0; recipient < params.block_size; recipient++) {
    for (int b = 0; b < params.message_bits; b++) {
      int64_t mask = dp::EvenGeometricMask(prg, effective_alpha);
      if (mask != 0) {
        agg.c2[recipient][b] =
            agg.c2[recipient][b].Add(crypto::MulBase(crypto::EncodeExponent(mask)));
      }
    }
  }
  return agg;
}

AggregatedColumns AdjustAggregated(const AggregatedColumns& agg,
                                   const crypto::U256& neighbor_key) {
  AggregatedColumns out;
  out.c1 = agg.c1.Mul(neighbor_key);
  out.c2 = agg.c2;
  return out;
}

bool RecoverShare(const MemberColumn& column, const MemberKeys& my_keys,
                  const crypto::DlogTable& table, mpc::BitVector* share_out) {
  int bits = static_cast<int>(column.c2.size());
  DSTRESS_CHECK(static_cast<int>(my_keys.keys.size()) == bits);
  share_out->assign(bits, 0);
  for (int b = 0; b < bits; b++) {
    crypto::ElGamalCiphertext ct{column.c1, column.c2[b]};
    int64_t sum = 0;
    if (!table.Decrypt(my_keys.keys[b].secret, ct, &sum)) {
      return false;
    }
    (*share_out)[b] = static_cast<uint8_t>(((sum % 2) + 2) % 2);
  }
  return true;
}

}  // namespace dstress::transfer
