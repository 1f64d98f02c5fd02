// The edge-transfer engine (docs/transfer-crypto.md): one edge transfer
// over the network, the only schedule the runtime runs, and the batched
// wire-level role kernels it calls.
//
// Each *Wire kernel performs the same cryptographic work as its pure-scheme
// counterpart in transfer.h but for a whole per-edge burst at once, keeping
// points in batch-affine form end to end:
//
//  * every (recipient, bit) slot of a sender's bundle is one lane of one
//    FixedBaseTableSet::MulShared call over the certificate's table set,
//    one call per sender with one scalar recoding and one field inversion
//    per nonzero window digit;
//  * results are serialized straight from affine coordinates, so the
//    per-point Jacobian normalization (one field inversion each) on the
//    seed serialization path disappears;
//  * aggregation masks come from the EvenNoiseCache instead of a fresh
//    MulBase per (recipient, bit) slot;
//  * decryption builds one table for the column's shared ephemeral c1 and
//    evaluates all (member, bit) secrets against it in lockstep.
//
// Bit-fidelity contract: given the same PRG streams, every Bytes value
// produced here is byte-identical to the serialized output of the pure
// scheme functions (transfer_test pins this). Compressed encodings are
// unique per group element, so equality of group values implies equality
// of wire bytes; the draw order of every PRG consumer matches the pure
// functions exactly.
#ifndef SRC_TRANSFER_BATCH_ENGINE_H_
#define SRC_TRANSFER_BATCH_ENGINE_H_

#include <vector>

#include "src/net/transport.h"
#include "src/transfer/transfer.h"

namespace dstress::transfer {

// Cache of even noise points mask*G for the aggregation step: the even
// geometric masks are small with overwhelming probability, so a dense table
// of the likely range turns each mask application into a lookup. Out-of-range
// masks fall back to a MulBase evaluation.
class EvenNoiseCache {
 public:
  // Covers even masks with |mask| <= 2*min(half_range, internal cap).
  explicit EvenNoiseCache(int64_t half_range);

  // `even_mask` must be even (the transfer only ever applies even noise).
  crypto::AffinePoint Get(int64_t even_mask) const;

  int64_t covered_steps() const { return max_steps_; }

 private:
  int64_t max_steps_;
  std::vector<crypto::AffinePoint> pos_;  // pos_[t] = 2t*G
  std::vector<crypto::AffinePoint> neg_;  // neg_[t] = -2t*G
};

// All sender members of one edge in one pass. member_share_bits[x] is member
// x's L-bit share; prgs[x] is member x's role PRG, consumed exactly as
// EncryptSubshares does (ShareBits, then one ephemeral scalar). Returns each
// member's serialized SubshareBundle.
std::vector<Bytes> EncryptSubsharesWire(const std::vector<mpc::BitVector>& member_share_bits,
                                        const BlockCertificate& cert,
                                        std::vector<crypto::ChaCha20Prg>& prgs);

// Node i's aggregation + masking over the serialized bundles; `prg` draws
// the masks in the same (recipient, bit) order as AggregateSubshares.
// Returns the serialized AggregatedColumns.
Bytes AggregateSubsharesWire(const std::vector<Bytes>& bundle_wires, const TransferParams& params,
                             crypto::ChaCha20Prg& prg, const EvenNoiseCache& noise);

// Node j's adjustment + fan-out split: adjusts c1 with the neighbor key and
// splices each recipient's c2 row out of the aggregate wire verbatim
// (compressed encodings are unique, so re-serialization is the identity).
// Returns one serialized MemberColumn per recipient.
std::vector<Bytes> AdjustAndSplitWire(const Bytes& agg_wire, const crypto::U256& neighbor_key,
                                      const TransferParams& params);

// All receiver members of one edge in one pass: one FixedBaseTable for the
// shared c1, every (member, bit) secret evaluated in lockstep. Returns false
// on any lookup-table miss (the Appendix B failure event, same contract as
// RecoverShare).
bool RecoverSharesWire(const std::vector<Bytes>& column_wires,
                       const std::vector<const MemberKeys*>& member_keys,
                       const crypto::DlogTable& table, const TransferParams& params,
                       std::vector<mpc::BitVector>* shares_out);

// --- one edge transfer ------------------------------------------------------
//
// TransferEdge runs one transfer along edge (i, j) end to end on the calling
// thread, the chain B_i's members -> i -> j -> B_j's members:
//
//  1. the k+1 members of B_i encrypt their subshares in one
//     EncryptSubsharesWire pass (member x's share is member_share_bits[x],
//     its role PRG member_prgs[x]) and each sends its bundle to node i;
//  2. node i aggregates and masks the bundles (AggregateSubsharesWire,
//     masks drawn from mask_prg) and sends the aggregate to node j;
//  3. node j adjusts it with the edge's neighbor key and sends one column to
//     each member of B_j, in member order, once every column is ready;
//  4. B_j's members recover their fresh shares in one RecoverSharesWire
//     pass (member y's keys are member_keys[y]).
//
// Each hop rides a sub-session of `session` of its own: one physical node
// can be a sender member of B_i and a receiver member of B_j for the same
// edge, and without the split the bundle and the column would share a FIFO
// channel with two consumers. Every Recv reads a message this call sent
// earlier (Send never blocks), so a transfer never waits on another, and
// transfers on distinct sessions can run as tasks of one core::WorkerPool
// call. Messages, sessions and byte counts are pinned by the engine_test
// fidelity digests.
//
// Returns member y's fresh share at index y. A lookup-table miss is the
// Appendix B P_fail event, negligible by parameter choice, and aborts.
std::vector<mpc::BitVector> TransferEdge(
    net::Transport* net, net::SessionId session, const TransferParams& params,
    net::NodeId node_i, const std::vector<net::NodeId>& members_i,
    const std::vector<mpc::BitVector>& member_share_bits,
    std::vector<crypto::ChaCha20Prg> member_prgs, const BlockCertificate& cert,
    crypto::ChaCha20Prg mask_prg, const EvenNoiseCache& noise, net::NodeId node_j,
    const std::vector<net::NodeId>& members_j, const crypto::U256& neighbor_key,
    const std::vector<const MemberKeys*>& member_keys, const crypto::DlogTable& table);

}  // namespace dstress::transfer

#endif  // SRC_TRANSFER_BATCH_ENGINE_H_
