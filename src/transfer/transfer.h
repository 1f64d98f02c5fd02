// DStressTransfer: the share-transfer scheme of paper §3.5 / Appendix A.
//
// Context: block B_i (k+1 members) holds an XOR-sharing of an L-bit message
// m destined for block B_j along the graph edge (i, j). The transfer must
// not reveal m to any k-collusion, must not let the blocks identify each
// other, and must not leak the existence of the edge. The construction:
//
//  1. Every member x of B_i splits its share s_x into k+1 subshares, one
//     per member of B_j (strawman #2: restores collusion resistance).
//  2. Each subshare is encrypted *bitwise* under the recipient's
//     re-randomized public keys from the block certificate (strawman #3:
//     prevents subshare recognition). One ephemeral scalar is shared across
//     all (recipient, bit) slots — the Kurosawa multi-recipient
//     optimization the prototype applies (§5.1), which requires each
//     member to own L distinct key pairs.
//  3. Node i homomorphically aggregates the (k+1)^2 encrypted subshare
//     columns into k+1 columns of encrypted bit-SUMS and masks every sum
//     with an even draw 2·Geo(alpha^(2/(k+1))) (the "final protocol" step
//     that yields the Appendix B edge-privacy guarantee).
//  4. Node j adjusts the ephemeral component with the edge's neighbor key
//     n_{i,j} so the recipients' original secret keys decrypt, and fans the
//     columns out to B_j's members.
//  5. Each member of B_j decrypts its L bit-sums through the bounded
//     discrete-log table and takes parities: the parity of (sum + even
//     noise) equals the XOR of the subshare bits, so the members end up
//     with a fresh XOR-sharing of m (Theorem 1).
//
// This header holds the scheme's key material, wire messages and the pure
// functions mirroring Appendix A's Setup / RandomizeKey / Encrypt /
// Aggregate / Adjust / Decrypt / Recover. The pure functions are the oracle
// the correctness tests pin the batched engine against; the runtime moves
// the serialized forms over the transport through the edge-transfer steps
// in batch_engine.h, so traffic is metered per role exactly as §5.3
// measures it.
#ifndef SRC_TRANSFER_TRANSFER_H_
#define SRC_TRANSFER_TRANSFER_H_

#include <memory>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/fixed_base.h"
#include "src/mpc/sharing.h"

namespace dstress::transfer {

struct TransferParams {
  int block_size = 8;       // k+1
  int message_bits = 12;    // L (the prototype's 12-bit shares)
  // Two-sided-geometric budget parameter alpha; the mask applied per bit
  // sum is 2·Geo(alpha^(2/block_size)).
  double budget_alpha = 0.99;
  // Half-range of the discrete-log lookup table (N_l = 2*dlog_range + 1).
  // Production parameters (alpha ~ 1 - 2e-7) need the paper's 8 GB table;
  // tests and benches use small alpha with small tables. See Appendix B.
  int64_t dlog_range = 4096;

  // Effective per-transfer noise parameter alpha^(2/(k+1)).
  double EffectiveAlpha() const;

  // Lookup-table half-range that keeps the per-bit-sum failure probability
  // (Appendix B's P_fail) at or below `max_failure_probability` for these
  // parameters, including slack for the un-noised sum of k+1 subshare bits.
  int64_t RecommendedDlogRange(double max_failure_probability) const;
};

// --- key material -----------------------------------------------------------

// One block member's L ElGamal key pairs (one per message bit).
struct MemberKeys {
  std::vector<crypto::ElGamalKeyPair> keys;
};

// Secret-side view of a whole block (held collectively, one entry per
// member; only used by tests and by the per-node key store).
struct BlockKeys {
  std::vector<MemberKeys> members;
};

// Public-side view: what the trusted party sees.
using BlockPublicKeys = std::vector<std::vector<crypto::ElGamalPublicKey>>;  // [member][bit]

// Appendix A `Setup`: generates k+1 members' key material.
BlockKeys TransferSetup(int block_size, int message_bits, crypto::ChaCha20Prg& prg);
BlockPublicKeys PublicKeysOf(const BlockKeys& keys);

// Fixed-base tables for every [member][bit] key of one certificate — the
// batched encrypt path's amortization unit: built once per certificate,
// reused by every per-run transfer along that edge. Keys are flattened in
// [member * message_bits + bit] order, matching a bundle's (recipient, bit)
// slot order, so one MulShared call against the set produces a whole
// bundle's c2 lanes.
struct CertTables {
  int block_size = 0;
  int message_bits = 0;
  crypto::FixedBaseTableSet set;
};

// Appendix A `RandomizeKey`: the block certificate C_{i,j} — every member
// key blinded by the neighbor key r (TP-signed in the paper; the signature
// is modeled by provenance here since the TP is a trusted setup entity).
struct BlockCertificate {
  BlockPublicKeys keys;  // [member][bit], blinded

  Bytes Serialize() const;
  static BlockCertificate Deserialize(const Bytes& raw);

  // Fixed-base tables for every key, built lazily on first use and cached.
  // Thread-safe via an atomic shared_ptr rather than a mutex so the struct
  // stays copyable; concurrent first calls may briefly duplicate the build
  // (benign — the results are value-identical and one wins the exchange).
  std::shared_ptr<const CertTables> Tables() const;

  // Lazy cache behind Tables(); not part of the serialized form.
  mutable std::shared_ptr<const CertTables> tables_cache_;
};
// Blinds every key P of `publics` into r·P (Appendix A's RandomizeKey, key
// by key) in one crypto::MulVariableBases walk over all (k+1)·L keys: they
// share r's recoding and pay one field inversion per batch step.
BlockCertificate MakeBlockCertificate(const BlockPublicKeys& publics, const crypto::U256& r);

// --- scheme messages --------------------------------------------------------

// Appendix A `Encrypt` output of ONE sender member: a shared ephemeral
// component plus one encrypted bit per (recipient, bit) slot.
struct SubshareBundle {
  crypto::EcPoint c1;
  std::vector<std::vector<crypto::EcPoint>> c2;  // [recipient][bit]

  Bytes Serialize() const;
  static SubshareBundle Deserialize(const Bytes& raw, int block_size, int message_bits);
  size_t SerializedSize() const;
};

// Appendix A `Aggregate` (+noise) output of node i: per-recipient columns
// of encrypted noised bit sums under one aggregated ephemeral component.
struct AggregatedColumns {
  crypto::EcPoint c1;
  std::vector<std::vector<crypto::EcPoint>> c2;  // [recipient][bit]

  Bytes Serialize() const;
  static AggregatedColumns Deserialize(const Bytes& raw, int block_size, int message_bits);
};

// One recipient's column after node j's `Adjust`.
struct MemberColumn {
  crypto::EcPoint c1;
  std::vector<crypto::EcPoint> c2;  // [bit]

  Bytes Serialize() const;
  static MemberColumn Deserialize(const Bytes& raw, int message_bits);
};

// --- pure scheme functions --------------------------------------------------

// Member x: split `share_bits` (length L) into block_size subshares and
// encrypt them bitwise under the certificate.
SubshareBundle EncryptSubshares(const mpc::BitVector& share_bits, const BlockCertificate& cert,
                                crypto::ChaCha20Prg& prg);

// Node i: homomorphic aggregation of all members' bundles plus the even
// geometric mask on every bit sum.
AggregatedColumns AggregateSubshares(const std::vector<SubshareBundle>& bundles,
                                     const TransferParams& params, crypto::ChaCha20Prg& prg);

// Node j: ephemeral-key adjustment with the neighbor key.
AggregatedColumns AdjustAggregated(const AggregatedColumns& agg, const crypto::U256& neighbor_key);

// Member y of B_j: decrypt own column and recover the new share by parity.
// Returns false if a bit sum falls outside the lookup table (the Appendix B
// failure event).
bool RecoverShare(const MemberColumn& column, const MemberKeys& my_keys,
                  const crypto::DlogTable& table, mpc::BitVector* share_out);

}  // namespace dstress::transfer

#endif  // SRC_TRANSFER_TRANSFER_H_
