// §5.2 / §5.3 "Message transfers" microbenchmarks of the transfer crypto
// engine the runtime runs (docs/transfer-crypto.md).
//
// Four sections:
//  1. EC primitives (per-operation µs): the field inverse and square root
//     behind every batch step and decompression, variable-base
//     EcPoint::Mul, the FixedBaseTable build, FixedBaseTable::Recode, one
//     MulBatch of many recodings against one table (per lane), one
//     128-lane MulVariableBases of one scalar (per lane, the base-OT
//     sender's shape), the generator comb MulBase, and batch
//     compression/decompression — the operations whose costs explain the
//     role walls below.
//  2. Per-transfer role walls: each of the four batched wire-level role
//     kernels (bundle encryption, source aggregation, destination
//     adjustment, column recovery) on one edge's burst.
//  3. The paper's §5.2 curve: end-to-end time to transfer a single 12-bit
//     message between two blocks as a function of block size (285 ms at
//     block 8 to 610 ms at block 20 in the paper; linear in k with a
//     milder quadratic component at the source endpoint). Each transfer
//     is one transfer::TransferEdge call on one thread over a sim
//     transport — the task CommunicatePhase runs per (lane, edge) pair.
//  4. The §5.3 bytes handled per role during those same transfers. Paper
//     numbers (secp384r1 points): node i receives the (k+1)^2 encrypted
//     subshares — 97 kB (8-node blocks) to 595 kB (20-node blocks); members
//     of B_i and node j send k+1 encrypted columns each (linear in k,
//     <= 29 kB); members of B_j receive one constant-size column (~1.4 kB).
//     With our 33-byte compressed secp256k1 points the absolute numbers are
//     ~40% smaller; the quadratic/linear/constant split per role is
//     identical.
//
// Every timing is the median of kReps timed repetitions; each repetition's
// setup (fresh PRGs, a fresh transport, its input data) runs outside the
// timer. Everything is written to BENCH_transfer.json in the working
// directory (CI runs from the repo root and uploads it next to
// BENCH_fig6.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/crypto/fixed_base.h"
#include "src/transfer/batch_engine.h"
#include "src/transfer/transfer.h"

namespace dstress::bench {
namespace {

constexpr int kReps = 5;

// Median over kReps calls of `rep`, which runs its own untimed setup and
// returns the seconds of its timed part.
template <typename Rep>
double MedianSeconds(Rep rep) {
  std::vector<double> seconds;
  for (int i = 0; i < kReps; i++) {
    seconds.push_back(rep());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[kReps / 2];
}

std::vector<crypto::ChaCha20Prg> MemberPrgs(int block_size) {
  std::vector<crypto::ChaCha20Prg> prgs;
  for (int x = 0; x < block_size; x++) {
    prgs.push_back(crypto::ChaCha20Prg::FromSeed(100 + x));
  }
  return prgs;
}

struct RoleRow {
  std::string role;
  double us = 0;  // per transfer
};

struct PrimitiveRow {
  std::string name;
  double us = 0;
};

// One §5.2/§5.3 single-message transfer: its wall and the bytes each role
// handled.
struct TransferRow {
  int block_size = 0;
  double ms = 0;
  uint64_t i_recv_bytes = 0;
  uint64_t member_bi_sent_bytes = 0;
  uint64_t j_sent_bytes = 0;
  uint64_t member_bj_recv_bytes = 0;
};

void WriteJson(int block_size, const std::vector<PrimitiveRow>& primitives,
               const std::vector<RoleRow>& roles, const std::vector<TransferRow>& transfers) {
  std::FILE* f = std::fopen("BENCH_transfer.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_transfer.json: cannot open for writing, skipping\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"transfer\",\n");
  std::fprintf(f, "  \"block_size\": %d,\n", block_size);
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"primitives_us\": {\n");
  for (size_t i = 0; i < primitives.size(); i++) {
    std::fprintf(f, "    \"%s\": %.3f%s\n", primitives[i].name.c_str(), primitives[i].us,
                 i + 1 < primitives.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"roles\": [\n");
  for (size_t i = 0; i < roles.size(); i++) {
    std::fprintf(f, "    {\"role\": \"%s\", \"us\": %.1f}%s\n", roles[i].role.c_str(),
                 roles[i].us, i + 1 < roles.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"transfers\": [\n");
  for (size_t i = 0; i < transfers.size(); i++) {
    const TransferRow& t = transfers[i];
    std::fprintf(f,
                 "    {\"block_size\": %d, \"ms\": %.1f, \"i_recv_bytes\": %llu, "
                 "\"member_bi_sent_bytes\": %llu, \"j_sent_bytes\": %llu, "
                 "\"member_bj_recv_bytes\": %llu}%s\n",
                 t.block_size, t.ms, static_cast<unsigned long long>(t.i_recv_bytes),
                 static_cast<unsigned long long>(t.member_bi_sent_bytes),
                 static_cast<unsigned long long>(t.j_sent_bytes),
                 static_cast<unsigned long long>(t.member_bj_recv_bytes),
                 i + 1 < transfers.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("# wrote BENCH_transfer.json (%zu primitives, %zu roles, %zu transfers)\n",
              primitives.size(), roles.size(), transfers.size());
}

std::vector<PrimitiveRow> BenchPrimitives() {
  std::vector<PrimitiveRow> rows;
  auto prg = crypto::ChaCha20Prg::FromSeed(7);
  const crypto::U256 order = crypto::CurveOrder();
  crypto::EcPoint base = crypto::MulBase(prg.NextScalar(order));

  constexpr int kOps = 256;
  std::vector<crypto::U256> scalars;
  for (int i = 0; i < kOps; i++) {
    scalars.push_back(prg.NextScalar(order));
  }

  std::vector<crypto::Fp> field(kOps);
  for (int i = 0; i < kOps; i++) {
    field[i] = crypto::Fp::FromU256(scalars[i]);
  }
  rows.push_back({"fp_inv", MedianSeconds([&] {
                    Stopwatch timer;
                    crypto::Fp sum;
                    for (const crypto::Fp& x : field) {
                      sum = sum + x.Inv();
                    }
                    DSTRESS_CHECK(!sum.IsZero());
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});
  rows.push_back({"fp_sqrt", MedianSeconds([&] {
                    Stopwatch timer;
                    int roots = 0;
                    for (const crypto::Fp& x : field) {
                      crypto::Fp root;
                      roots += x.Sqrt(&root) ? 1 : 0;
                    }
                    DSTRESS_CHECK(roots > 0);
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});

  std::vector<crypto::EcPoint> points(kOps);
  rows.push_back({"mul_variable_base", MedianSeconds([&] {
                    Stopwatch timer;
                    for (int i = 0; i < kOps; i++) {
                      points[i] = base.Mul(scalars[i]);
                    }
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});
  rows.push_back({"fixed_base_table_build", MedianSeconds([&] {
                    Stopwatch timer;
                    crypto::FixedBaseTable table(base);
                    return timer.ElapsedSeconds();
                  }) * 1e6});
  std::vector<crypto::FixedBaseTable::Recoding> recodings(kOps);
  rows.push_back({"recode", MedianSeconds([&] {
                    Stopwatch timer;
                    for (int i = 0; i < kOps; i++) {
                      recodings[i] = crypto::FixedBaseTable::Recode(scalars[i]);
                    }
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});
  {
    // One table against many recodings: the shape of column decryption and
    // the base-OT receiver.
    crypto::FixedBaseTable table(base);
    std::vector<crypto::AffinePoint> products(kOps);
    rows.push_back({"mul_batch_fixed_base_table", MedianSeconds([&] {
                      Stopwatch timer;
                      crypto::MulBatch(table, recodings.data(), kOps, products.data());
                      return timer.ElapsedSeconds();
                    }) * 1e6 / kOps});
    for (const crypto::AffinePoint& p : products) {
      DSTRESS_CHECK(!p.infinity);
    }
  }
  {
    // Many bases against one scalar: the base-OT sender's 128 a*B_i.
    constexpr int kLanes = 128;
    std::vector<crypto::AffinePoint> bases(kLanes);
    crypto::EcPoint::ToAffineBatch(points.data(), kLanes, bases.data());
    std::vector<crypto::AffinePoint> products(kLanes);
    rows.push_back({"mul_variable_bases_128", MedianSeconds([&] {
                      Stopwatch timer;
                      crypto::MulVariableBases(bases.data(), kLanes, scalars[0], products.data());
                      return timer.ElapsedSeconds();
                    }) * 1e6 / kLanes});
    for (const crypto::AffinePoint& p : products) {
      DSTRESS_CHECK(!p.infinity);
    }
  }
  rows.push_back({"mul_base_comb", MedianSeconds([&] {
                    Stopwatch timer;
                    for (const auto& s : scalars) {
                      crypto::EcPoint p = crypto::MulBase(s);
                      DSTRESS_CHECK(!p.IsInfinity());
                    }
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});
  std::vector<uint8_t> wire(kOps * crypto::EcPoint::kCompressedSize);
  rows.push_back({"compress_batch", MedianSeconds([&] {
                    Stopwatch timer;
                    crypto::EcPoint::CompressBatch(points.data(), kOps, wire.data());
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});
  std::vector<crypto::AffinePoint> back(kOps);
  rows.push_back({"decompress_batch", MedianSeconds([&] {
                    Stopwatch timer;
                    DSTRESS_CHECK(crypto::EcPoint::DecompressBatch(wire.data(), kOps, back.data()));
                    return timer.ElapsedSeconds();
                  }) * 1e6 / kOps});
  return rows;
}

// The four batched role kernels on one edge's burst. Per-transfer wall:
// encrypt and recover are per member-bundle/member-column (the per-edge
// cost a node pays as a block member), aggregate and adjust are per edge.
std::vector<RoleRow> BenchRoles(int block_size) {
  constexpr int kBits = 12;
  auto prg = crypto::ChaCha20Prg::FromSeed(77);
  transfer::TransferParams params;
  params.block_size = block_size;
  params.message_bits = kBits;
  params.budget_alpha = 0.9;
  params.dlog_range = params.RecommendedDlogRange(1e-9);

  transfer::BlockKeys dest_keys = transfer::TransferSetup(block_size, kBits, prg);
  crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
  transfer::BlockCertificate cert =
      transfer::MakeBlockCertificate(transfer::PublicKeysOf(dest_keys), neighbor_key);
  crypto::DlogTable table(params.dlog_range);
  transfer::EvenNoiseCache noise(table.range());
  {
    // Steady state below: tables built once per run, reused per edge. Time
    // the certificate's FixedBaseTableSet::Build here, through the first
    // cert.Tables() call (one set of (k+1)*L keys).
    Stopwatch timer;
    size_t keys = cert.Tables()->set.num_keys();
    double us = timer.ElapsedSeconds() * 1e6;
    std::printf("# cert table build: %.1f us (%zu keys, %.1f us/key)\n", us, keys, us / keys);
  }

  mpc::BitVector share(kBits, 0);
  for (auto& bit : share) {
    bit = prg.NextBit() ? 1 : 0;
  }
  std::vector<mpc::BitVector> member_shares(block_size, share);

  // Each role consumes the previous role's output, which is the same on
  // every repetition: the PRGs are re-seeded outside the timer.
  std::vector<RoleRow> rows;
  std::vector<Bytes> bundles;
  rows.push_back({"encrypt", MedianSeconds([&] {
                    std::vector<crypto::ChaCha20Prg> prgs = MemberPrgs(block_size);
                    Stopwatch timer;
                    std::vector<Bytes> out =
                        transfer::EncryptSubsharesWire(member_shares, cert, prgs);
                    const double seconds = timer.ElapsedSeconds();
                    bundles = std::move(out);
                    return seconds;
                  }) * 1e6 / block_size});
  Bytes agg;
  rows.push_back({"aggregate", MedianSeconds([&] {
                    auto mask_prg = crypto::ChaCha20Prg::FromSeed(200);
                    Stopwatch timer;
                    Bytes out = transfer::AggregateSubsharesWire(bundles, params, mask_prg, noise);
                    const double seconds = timer.ElapsedSeconds();
                    agg = std::move(out);
                    return seconds;
                  }) * 1e6});
  std::vector<Bytes> columns;
  rows.push_back({"adjust", MedianSeconds([&] {
                    Stopwatch timer;
                    std::vector<Bytes> out =
                        transfer::AdjustAndSplitWire(agg, neighbor_key, params);
                    const double seconds = timer.ElapsedSeconds();
                    columns = std::move(out);
                    return seconds;
                  }) * 1e6});
  std::vector<const transfer::MemberKeys*> member_keys;
  for (int y = 0; y < block_size; y++) {
    member_keys.push_back(&dest_keys.members[y]);
  }
  rows.push_back({"recover", MedianSeconds([&] {
                    std::vector<mpc::BitVector> recovered;
                    Stopwatch timer;
                    DSTRESS_CHECK(transfer::RecoverSharesWire(columns, member_keys, table,
                                                              params, &recovered));
                    return timer.ElapsedSeconds();
                  }) * 1e6 / block_size});
  return rows;
}

// §5.2 end-to-end single-message transfer: one TransferEdge call on one
// thread over a sim transport, with the per-role bytes §5.3
// reports read from the same transport. Steady state: the certificate's
// tables, the lookup table and the noise cache are built before the timer,
// as the runtime builds them once per run.
TransferRow SingleTransfer(int block_size) {
  constexpr int kBits = 12;
  auto prg = crypto::ChaCha20Prg::FromSeed(77);
  transfer::TransferParams params;
  params.block_size = block_size;
  params.message_bits = kBits;
  params.budget_alpha = 0.99;
  params.dlog_range = params.RecommendedDlogRange(1e-12);

  transfer::BlockKeys dest_keys = transfer::TransferSetup(block_size, kBits, prg);
  crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
  transfer::BlockCertificate cert =
      transfer::MakeBlockCertificate(transfer::PublicKeysOf(dest_keys), neighbor_key);
  cert.Tables();
  crypto::DlogTable table(params.dlog_range);
  transfer::EvenNoiseCache noise(table.range());

  mpc::BitVector message(kBits, 1);
  auto shares = mpc::ShareBits(message, block_size, prg);

  // Nodes: 0 = i, 1 = j, 2.. = block members (distinct for clean per-role
  // accounting).
  std::vector<net::NodeId> members_i, members_j;
  std::vector<const transfer::MemberKeys*> member_keys;
  for (int m = 0; m < block_size; m++) {
    members_i.push_back(2 + m);
    members_j.push_back(2 + block_size + m);
    member_keys.push_back(&dest_keys.members[m]);
  }
  constexpr net::SessionId kSession = 1;

  // A fresh transport and fresh PRGs per repetition, so every repetition
  // sends the same bytes.
  TransferRow row;
  row.block_size = block_size;
  const double seconds = MedianSeconds([&] {
    std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(2 + 2 * block_size);
    net::Transport* net = net_owner.get();
    std::vector<crypto::ChaCha20Prg> prgs = MemberPrgs(block_size);
    auto mask_prg = crypto::ChaCha20Prg::FromSeed(200);
    Stopwatch timer;
    std::vector<mpc::BitVector> received = transfer::TransferEdge(
        net, kSession, params, 0, members_i, shares, std::move(prgs), cert, std::move(mask_prg), noise, 1,
        members_j, neighbor_key, member_keys, table);
    const double elapsed = timer.ElapsedSeconds();
    DSTRESS_CHECK(mpc::ReconstructBits(received) == message);
    row.i_recv_bytes = net->NodeStats(0).bytes_received;
    row.member_bi_sent_bytes = net->NodeStats(members_i[0]).bytes_sent;
    row.j_sent_bytes = net->NodeStats(1).bytes_sent;
    row.member_bj_recv_bytes = net->NodeStats(members_j[0]).bytes_received;
    return elapsed;
  });
  row.ms = seconds * 1e3;
  return row;
}

void Run() {
  std::printf("# transfer-phase crypto microbenchmarks (docs/transfer-crypto.md), median of %d "
              "repetitions\n",
              kReps);

  std::printf("\n# EC primitives\n%28s %12s\n", "op", "us");
  std::vector<PrimitiveRow> primitives = BenchPrimitives();
  for (const PrimitiveRow& p : primitives) {
    std::printf("%28s %12.3f\n", p.name.c_str(), p.us);
  }

  int block_size = FullScale() ? 20 : 8;
  std::printf("\n# transfer roles, block size %d: batched wire-level kernels\n", block_size);
  std::printf("%12s %12s\n", "role", "us");
  std::vector<RoleRow> roles = BenchRoles(block_size);
  for (const RoleRow& r : roles) {
    std::printf("%12s %12.1f\n", r.role.c_str(), r.us);
  }

  std::vector<TransferRow> transfers;
  for (int b : {8, 12, 16, 20}) {
    transfers.push_back(SingleTransfer(b));
  }
  std::printf("\n# §5.2 single 12-bit message transfer: one TransferEdge call over\n"
              "# a sim transport (paper: 285 ms at block 8 .. 610 ms at block 20)\n");
  std::printf("%12s %12s\n", "block", "ms");
  for (const TransferRow& t : transfers) {
    std::printf("%12d %12.1f\n", t.block_size, t.ms);
  }

  std::printf("\n# §5.3 bytes per role during the same transfers, L = 12-bit messages, "
              "33-byte points\n");
  std::printf("%-10s %14s %16s %14s %16s\n", "block", "i_recv_bytes", "member_Bi_sent",
              "j_sent_bytes", "member_Bj_recv");
  for (const TransferRow& t : transfers) {
    std::printf("%-10d %14llu %16llu %14llu %16llu\n", t.block_size,
                static_cast<unsigned long long>(t.i_recv_bytes),
                static_cast<unsigned long long>(t.member_bi_sent_bytes),
                static_cast<unsigned long long>(t.j_sent_bytes),
                static_cast<unsigned long long>(t.member_bj_recv_bytes));
  }
  std::printf("# shape check: i_recv quadratic in k, member/j linear, Bj-member constant\n");

  WriteJson(block_size, primitives, roles, transfers);
}

}  // namespace
}  // namespace dstress::bench

int main() {
  dstress::bench::Run();
  return 0;
}
