// §5.2 / §5.3 "Message transfers" microbenchmarks of the transfer crypto
// engine the runtime runs (docs/transfer-crypto.md).
//
// Four sections:
//  1. EC primitives (per-operation µs): variable-base EcPoint::Mul,
//     fixed-base table-backed FixedBaseTable::Mul, the generator comb
//     MulBase, and batch compression/decompression — the operations whose
//     costs explain the role walls below.
//  2. Per-transfer role walls: each of the four batched wire-level role
//     kernels (bundle encryption, source aggregation, destination
//     adjustment, column recovery) on one edge's burst.
//  3. The paper's §5.2 curve: end-to-end time to transfer a single 12-bit
//     message between two blocks as a function of block size (285 ms at
//     block 8 to 610 ms at block 20 in the paper; linear in k with a
//     milder quadratic component at the source endpoint). Each transfer
//     runs the four edge-transfer steps (SendBundles, AggregateAtSource,
//     AdjustAtDest, RecoverAtMembers) in order on one thread over a sim
//     transport — the schedule CommunicatePhase runs per edge.
//  4. The §5.3 bytes handled per role during those same transfers. Paper
//     numbers (secp384r1 points): node i receives the (k+1)^2 encrypted
//     subshares — 97 kB (8-node blocks) to 595 kB (20-node blocks); members
//     of B_i and node j send k+1 encrypted columns each (linear in k,
//     <= 29 kB); members of B_j receive one constant-size column (~1.4 kB).
//     With our 33-byte compressed secp256k1 points the absolute numbers are
//     ~40% smaller; the quadratic/linear/constant split per role is
//     identical.
//
// Everything is written to BENCH_transfer.json in the working directory
// (CI runs from the repo root and uploads it next to BENCH_fig6.json).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/crypto/fixed_base.h"
#include "src/transfer/batch_engine.h"
#include "src/transfer/transfer.h"

namespace dstress::bench {
namespace {

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

  std::vector<crypto::EcPoint> points;
  {
    Stopwatch timer;
    for (const auto& s : scalars) {
      points.push_back(base.Mul(s));
    }
    rows.push_back({"mul_variable_base", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  {
    Stopwatch timer;
    crypto::FixedBaseTable table(base);
    rows.push_back({"fixed_base_table_build", timer.ElapsedSeconds() * 1e6});
    timer.Reset();
    for (const auto& s : scalars) {
      crypto::EcPoint p = table.Mul(s);
      DSTRESS_CHECK(!p.IsInfinity());
    }
    rows.push_back({"mul_fixed_base_table", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  {
    Stopwatch timer;
    for (const auto& s : scalars) {
      crypto::EcPoint p = crypto::MulBase(s);
      DSTRESS_CHECK(!p.IsInfinity());
    }
    rows.push_back({"mul_base_comb", timer.ElapsedSeconds() * 1e6 / kOps});
  }
  {
    std::vector<uint8_t> wire(kOps * crypto::EcPoint::kCompressedSize);
    Stopwatch timer;
    crypto::EcPoint::CompressBatch(points.data(), kOps, wire.data());
    rows.push_back({"compress_batch", timer.ElapsedSeconds() * 1e6 / kOps});
    std::vector<crypto::EcPoint> back(kOps);
    timer.Reset();
    DSTRESS_CHECK(crypto::EcPoint::DecompressBatch(wire.data(), kOps, back.data()));
    rows.push_back({"decompress_batch", timer.ElapsedSeconds() * 1e6 / kOps});
  }
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
    // the amortized BuildMany path here (one cert = (k+1)*L keys).
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

  std::vector<RoleRow> rows;
  std::vector<Bytes> bundles;
  {
    std::vector<crypto::ChaCha20Prg> prgs;
    for (int x = 0; x < block_size; x++) {
      prgs.push_back(crypto::ChaCha20Prg::FromSeed(100 + x));
    }
    Stopwatch timer;
    bundles = transfer::EncryptSubsharesWire(member_shares, cert, prgs);
    rows.push_back({"encrypt", timer.ElapsedSeconds() * 1e6 / block_size});
  }
  Bytes agg;
  {
    auto mask_prg = crypto::ChaCha20Prg::FromSeed(200);
    Stopwatch timer;
    agg = transfer::AggregateSubsharesWire(bundles, params, mask_prg, noise);
    rows.push_back({"aggregate", timer.ElapsedSeconds() * 1e6});
  }
  std::vector<Bytes> columns;
  {
    Stopwatch timer;
    columns = transfer::AdjustAndSplitWire(agg, neighbor_key, params);
    rows.push_back({"adjust", timer.ElapsedSeconds() * 1e6});
  }
  {
    std::vector<const transfer::MemberKeys*> member_keys;
    for (int y = 0; y < block_size; y++) {
      member_keys.push_back(&dest_keys.members[y]);
    }
    std::vector<mpc::BitVector> recovered;
    Stopwatch timer;
    DSTRESS_CHECK(transfer::RecoverSharesWire(columns, member_keys, table, params, &recovered));
    rows.push_back({"recover", timer.ElapsedSeconds() * 1e6 / block_size});
  }
  return rows;
}

// §5.2 end-to-end single-message transfer: the four edge-transfer steps in
// order on one thread over a sim transport, with the per-role bytes §5.3
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
  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(2 + 2 * block_size);
  net::Transport* net = net_owner.get();
  std::vector<net::NodeId> members_i, members_j;
  std::vector<const transfer::MemberKeys*> member_keys;
  std::vector<crypto::ChaCha20Prg> prgs;
  for (int m = 0; m < block_size; m++) {
    members_i.push_back(2 + m);
    members_j.push_back(2 + block_size + m);
    member_keys.push_back(&dest_keys.members[m]);
    prgs.push_back(crypto::ChaCha20Prg::FromSeed(100 + m));
  }
  auto mask_prg = crypto::ChaCha20Prg::FromSeed(200);
  constexpr net::SessionId kSession = 1;

  Stopwatch timer;
  transfer::SendBundles(net, members_i, 0, kSession, shares, cert, prgs);
  transfer::AggregateAtSource(net, 0, members_i, 1, kSession, params, mask_prg, noise);
  transfer::AdjustAtDest(net, 1, 0, members_j, kSession, neighbor_key, params);
  std::vector<mpc::BitVector> received =
      transfer::RecoverAtMembers(net, members_j, 1, kSession, member_keys, table, params);
  TransferRow row;
  row.block_size = block_size;
  row.ms = timer.ElapsedSeconds() * 1e3;
  DSTRESS_CHECK(mpc::ReconstructBits(received) == message);
  row.i_recv_bytes = net->NodeStats(0).bytes_received;
  row.member_bi_sent_bytes = net->NodeStats(members_i[0]).bytes_sent;
  row.j_sent_bytes = net->NodeStats(1).bytes_sent;
  row.member_bj_recv_bytes = net->NodeStats(members_j[0]).bytes_received;
  return row;
}

void Run() {
  std::printf("# transfer-phase crypto microbenchmarks (docs/transfer-crypto.md)\n");

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
  std::printf("\n# §5.2 single 12-bit message transfer: the four edge-transfer steps over\n"
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
