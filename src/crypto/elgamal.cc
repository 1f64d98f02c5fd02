#include "src/crypto/elgamal.h"

#include <algorithm>
#include <cstring>

#include "src/common/check.h"
#include "src/crypto/sha256.h"

namespace dstress::crypto {

Bytes ElGamalPublicKey::Serialize() const {
  auto c = point.Compress();
  return Bytes(c.begin(), c.end());
}

ElGamalPublicKey ElGamalPublicKey::Deserialize(const Bytes& raw) {
  DSTRESS_CHECK(raw.size() == EcPoint::kCompressedSize);
  auto p = EcPoint::Decompress(raw.data());
  DSTRESS_CHECK(p.has_value());
  return ElGamalPublicKey{*p};
}

Bytes ElGamalCiphertext::Serialize() const {
  Bytes out;
  out.reserve(kSerializedSize);
  auto a = c1.Compress();
  auto b = c2.Compress();
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

ElGamalCiphertext ElGamalCiphertext::Deserialize(const Bytes& raw) {
  DSTRESS_CHECK(raw.size() == kSerializedSize);
  auto a = EcPoint::Decompress(raw.data());
  auto b = EcPoint::Decompress(raw.data() + EcPoint::kCompressedSize);
  DSTRESS_CHECK(a.has_value() && b.has_value());
  return ElGamalCiphertext{*a, *b};
}

ElGamalKeyPair ElGamalKeyGen(ChaCha20Prg& prg) {
  U256 x = prg.NextScalar(CurveOrder());
  return ElGamalKeyPair{x, ElGamalPublicKey{MulBase(x)}};
}

U256 EncodeExponent(int64_t m) {
  if (m >= 0) {
    return U256(static_cast<uint64_t>(m));
  }
  U256 e;
  SubWithBorrow(CurveOrder(), U256(static_cast<uint64_t>(-m)), &e);
  return e;
}

ElGamalCiphertext ElGamalEncryptWithEphemeral(const ElGamalPublicKey& pub, int64_t m,
                                              const U256& ephemeral) {
  EcPoint c1 = MulBase(ephemeral);
  EcPoint payload = MulBase(EncodeExponent(m));
  EcPoint c2 = payload.Add(pub.point.Mul(ephemeral));
  return ElGamalCiphertext{c1, c2};
}

ElGamalCiphertext ElGamalEncrypt(const ElGamalPublicKey& pub, int64_t m, ChaCha20Prg& prg) {
  return ElGamalEncryptWithEphemeral(pub, m, prg.NextScalar(CurveOrder()));
}

ElGamalMultiCiphertext ElGamalEncryptMulti(const std::vector<ElGamalPublicKey>& keys,
                                           const std::vector<int64_t>& msgs, ChaCha20Prg& prg) {
  DSTRESS_CHECK(keys.size() == msgs.size());
  U256 y = prg.NextScalar(CurveOrder());
  ElGamalMultiCiphertext out;
  out.c1 = MulBase(y);
  out.c2.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EcPoint payload = MulBase(EncodeExponent(msgs[i]));
    out.c2.push_back(payload.Add(keys[i].point.Mul(y)));
  }
  return out;
}

ElGamalCiphertext HomAdd(const ElGamalCiphertext& a, const ElGamalCiphertext& b) {
  return ElGamalCiphertext{a.c1.Add(b.c1), a.c2.Add(b.c2)};
}

ElGamalCiphertext HomAddPlain(const ElGamalCiphertext& ct, int64_t delta) {
  if (delta == 0) {
    return ct;
  }
  return ElGamalCiphertext{ct.c1, ct.c2.Add(MulBase(EncodeExponent(delta)))};
}

ElGamalPublicKey RandomizePublicKey(const ElGamalPublicKey& pub, const U256& r) {
  return ElGamalPublicKey{pub.point.Mul(r)};
}

ElGamalCiphertext AdjustCiphertext(const ElGamalCiphertext& ct, const U256& r) {
  return ElGamalCiphertext{ct.c1.Mul(r), ct.c2};
}

EcPoint ElGamalDecryptPoint(const U256& secret, const ElGamalCiphertext& ct) {
  return ct.c2.Add(ct.c1.Mul(secret).Neg());
}

uint64_t DlogTable::KeyOfBytes(const uint8_t* bytes33) {
  Sha256Digest digest = Sha256::Hash(bytes33, EcPoint::kCompressedSize);
  uint64_t key;
  std::memcpy(&key, digest.data(), 8);
  return key;
}

uint64_t DlogTable::KeyOf(const EcPoint& point) {
  auto compressed = point.Compress();
  return KeyOfBytes(compressed.data());
}

DlogTable::DlogTable(int64_t range) : range_(range) {
  DSTRESS_CHECK(range >= 0);
  map_.reserve(static_cast<size_t>(2 * range + 1));
  auto insert = [this](uint64_t key, int64_t m) {
    bool inserted = map_.emplace(key, m).second;
    // Distinct m map to distinct points (prime group order far exceeds any
    // table range), so a duplicate key means the truncated 64-bit digests
    // collided — which would silently decrypt to the wrong plaintext on
    // every future hit. Abort the build instead.
    DSTRESS_CHECK(inserted);
  };
  // Walk m = 1, ..., range with cheap group additions, compressing in
  // chunks so the affine normalization costs one shared inversion per chunk
  // rather than one per entry. -m*G is (x, -y) for m*G = (x, y): p is odd
  // and no curve point has y = 0, so -y has the other parity and -m*G's
  // encoding is m*G's with the prefix byte flipped (0x02 <-> 0x03). Each
  // chunk therefore fills both halves of the table.
  const EcPoint& g = EcPoint::Generator();
  EcPoint pos = EcPoint::Infinity();
  insert(KeyOf(pos), 0);
  constexpr int64_t kChunk = 512;
  std::vector<EcPoint> points;
  std::vector<uint8_t> compressed(kChunk * EcPoint::kCompressedSize);
  for (int64_t start = 1; start <= range; start += kChunk) {
    const int64_t end = std::min(range, start + kChunk - 1);
    points.clear();
    for (int64_t m = start; m <= end; m++) {
      pos = pos.Add(g);
      points.push_back(pos);
    }
    EcPoint::CompressBatch(points.data(), points.size(), compressed.data());
    for (size_t i = 0; i < points.size(); i++) {
      uint8_t* bytes = compressed.data() + i * EcPoint::kCompressedSize;
      const int64_t m = start + static_cast<int64_t>(i);
      insert(KeyOfBytes(bytes), m);
      bytes[0] ^= 0x01;
      insert(KeyOfBytes(bytes), -m);
    }
  }
}

bool DlogTable::Lookup(const EcPoint& point, int64_t* out) const {
  auto it = map_.find(KeyOf(point));
  if (it == map_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

bool DlogTable::LookupCompressed(const uint8_t* bytes33, int64_t* out) const {
  auto it = map_.find(KeyOfBytes(bytes33));
  if (it == map_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

bool DlogTable::Decrypt(const U256& secret, const ElGamalCiphertext& ct, int64_t* out) const {
  return Lookup(ElGamalDecryptPoint(secret, ct), out);
}

}  // namespace dstress::crypto
