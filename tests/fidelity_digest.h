// Golden fidelity digests: the committed form of the contract that every
// data plane releases the same figures over the same per-node traffic as
// the seed schedule it replaced.
//
// A digest is SHA-256 over a run's observable surface — released figure,
// reference and iteration count, the MPC counters of secure runs, final
// vertex states of cleartext runs, per-lane figures of ensembles, and all
// four TrafficStats counters of every node. The digest tests commit one
// hex string per corpus entry; each was captured from the seed path and
// checked equal to the default path before the seed paths were deleted.
// A mismatch fails the test and prints the recomputed digest, which is
// what to paste back after an intentional protocol change (see the
// "Fidelity contract" section of docs/packed-eval.md).
#ifndef TESTS_FIDELITY_DIGEST_H_
#define TESTS_FIDELITY_DIGEST_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/crypto/sha256.h"
#include "src/mpc/sharing.h"
#include "src/net/transport.h"

namespace dstress {

class FidelityDigest {
 public:
  FidelityDigest& Add(uint64_t value) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; i++) {
      bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    hash_.Update(bytes, sizeof(bytes));
    return *this;
  }

  // Length-prefixed, so adjacent byte strings cannot alias each other.
  FidelityDigest& AddBytes(const uint8_t* data, size_t size) {
    Add(size);
    hash_.Update(data, size);
    return *this;
  }

  FidelityDigest& AddBits(const mpc::BitVector& bits) { return AddBytes(bits.data(), bits.size()); }

  FidelityDigest& AddStats(const net::TrafficStats& stats) {
    return Add(stats.bytes_sent)
        .Add(stats.bytes_received)
        .Add(stats.messages_sent)
        .Add(stats.messages_received);
  }

  // Every node's four TrafficStats counters, in node order.
  FidelityDigest& AddTraffic(const net::Transport& net) {
    Add(static_cast<uint64_t>(net.num_nodes()));
    for (int v = 0; v < net.num_nodes(); v++) {
      AddStats(net.NodeStats(v));
    }
    return *this;
  }

  std::string Hex() {
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (uint8_t b : hash_.Finish()) {
      out += kDigits[b >> 4];
      out += kDigits[b & 15];
    }
    return out;
  }

 private:
  crypto::Sha256 hash_;
};

inline void ExpectGoldenDigest(const std::string& recomputed, const char* golden,
                               const std::string& label) {
  EXPECT_EQ(recomputed, golden) << label << ": recomputed digest " << recomputed;
}

}  // namespace dstress

#endif  // TESTS_FIDELITY_DIGEST_H_
