// Exponential ElGamal over secp256k1, with the two extra properties DStress
// needs (paper §3, "ElGamal encryption"):
//
//  * additive homomorphism — messages are encoded in the exponent
//    (m -> m*G), so adding ciphertexts adds plaintexts;
//  * public-key re-randomization — a public key P = x*G can be blinded to
//    r*P without knowledge of x, and a ciphertext produced under r*P can be
//    adjusted (c1 -> r*c1) so that the original secret key x decrypts it.
//
// Decryption recovers m*G; mapping back to the integer m uses a bounded
// discrete-log lookup table (DlogTable), exactly as in the paper.
#ifndef SRC_CRYPTO_ELGAMAL_H_
#define SRC_CRYPTO_ELGAMAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/crypto/chacha20.h"
#include "src/crypto/ec.h"

namespace dstress::crypto {

struct ElGamalPublicKey {
  EcPoint point;  // x*G, possibly blinded to r*x*G

  Bytes Serialize() const;
  static ElGamalPublicKey Deserialize(const Bytes& raw);
};

struct ElGamalKeyPair {
  U256 secret;
  ElGamalPublicKey pub;
};

struct ElGamalCiphertext {
  EcPoint c1;  // y*G (ephemeral)
  EcPoint c2;  // m*G + y*P

  // Wire size: two compressed points.
  static constexpr size_t kSerializedSize = 2 * EcPoint::kCompressedSize;
  Bytes Serialize() const;
  static ElGamalCiphertext Deserialize(const Bytes& raw);
};

// A Kurosawa multi-recipient ciphertext: one shared ephemeral component and
// one payload component per recipient key. The prototype's §5.1 optimization.
struct ElGamalMultiCiphertext {
  EcPoint c1;
  std::vector<EcPoint> c2;

  size_t SerializedSize() const { return (1 + c2.size()) * EcPoint::kCompressedSize; }
};

ElGamalKeyPair ElGamalKeyGen(ChaCha20Prg& prg);

// Encodes a signed message in the exponent: negative m maps to n - |m|.
U256 EncodeExponent(int64_t m);

ElGamalCiphertext ElGamalEncrypt(const ElGamalPublicKey& pub, int64_t m, ChaCha20Prg& prg);
// Encryption with caller-chosen ephemeral scalar (deterministic; test use).
ElGamalCiphertext ElGamalEncryptWithEphemeral(const ElGamalPublicKey& pub, int64_t m,
                                              const U256& ephemeral);
// One ephemeral scalar shared across all recipients; msgs[i] goes to keys[i].
ElGamalMultiCiphertext ElGamalEncryptMulti(const std::vector<ElGamalPublicKey>& keys,
                                           const std::vector<int64_t>& msgs, ChaCha20Prg& prg);

// Homomorphic addition: Dec(HomAdd(E(a), E(b))) = a + b.
ElGamalCiphertext HomAdd(const ElGamalCiphertext& a, const ElGamalCiphertext& b);
// Adds a known constant to the plaintext without decrypting: c2 += delta*G.
// This is how node i folds geometric masking noise into forwarded shares.
ElGamalCiphertext HomAddPlain(const ElGamalCiphertext& ct, int64_t delta);

// Blinds a public key: P -> r*P, Appendix A's RandomizeKey for one key.
// The trusted party blinds a whole block certificate with the neighbor key
// r in one lockstep walk (transfer::MakeBlockCertificate), which the tests
// check against this definition.
ElGamalPublicKey RandomizePublicKey(const ElGamalPublicKey& pub, const U256& r);
// Adjusts a ciphertext produced under the blinded key r*P so the original
// secret decrypts it: c1 -> r*c1. Performed by the edge endpoint j, which
// knows r but not the block members' secrets.
ElGamalCiphertext AdjustCiphertext(const ElGamalCiphertext& ct, const U256& r);

// Recovers the message point m*G.
EcPoint ElGamalDecryptPoint(const U256& secret, const ElGamalCiphertext& ct);

// Bounded discrete-log lookup table over [-range, +range] (paper Appendix B:
// decryption "using a lookup table of N_l entries").
class DlogTable {
 public:
  explicit DlogTable(int64_t range);

  int64_t range() const { return range_; }
  size_t entries() const { return map_.size(); }

  // Returns false if the point is outside the covered range (the protocol's
  // "failure probability" event, Appendix B).
  bool Lookup(const EcPoint& point, int64_t* out) const;
  // Lookup keyed by an already-compressed encoding — the batched decrypt
  // path serializes decrypted points in bulk and never materializes
  // EcPoint forms just to hash them.
  bool LookupCompressed(const uint8_t* bytes33, int64_t* out) const;
  // Convenience: full decrypt of a ciphertext.
  bool Decrypt(const U256& secret, const ElGamalCiphertext& ct, int64_t* out) const;

 private:
  static uint64_t KeyOf(const EcPoint& point);
  static uint64_t KeyOfBytes(const uint8_t* bytes33);

  int64_t range_;
  std::unordered_map<uint64_t, int64_t> map_;
};

}  // namespace dstress::crypto

#endif  // SRC_CRYPTO_ELGAMAL_H_
