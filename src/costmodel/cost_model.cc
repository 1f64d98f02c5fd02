#include "src/costmodel/cost_model.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/circuit/builder.h"
#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/crypto/elgamal.h"
#include "src/mpc/batch_eval.h"
#include "src/mpc/sharing.h"
#include "src/mpc/triples.h"
#include "src/net/transport_spec.h"
#include "src/transfer/batch_engine.h"
#include "src/transfer/transfer.h"

namespace dstress::costmodel {

std::string MicroCosts::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "per-AND: %.2f us / %.1f B; transfer: encrypt=%.2f ms endpoint=%.2f ms "
                "adjust=%.2f ms decrypt=%.2f ms table-build=%.2f ms (block=%d L=%d)",
                seconds_per_and * 1e6, bytes_per_and, seconds_bundle_encrypt * 1e3,
                seconds_source_endpoint * 1e3, seconds_dest_adjust * 1e3,
                seconds_column_decrypt * 1e3, seconds_cert_table_build * 1e3,
                calibrated_block_size, calibrated_message_bits);
  return buf;
}

std::string Projection::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "total=%.1f min (init=%.1fs compute=%.1f min comm=%.1f min agg=%.1fs) "
                "traffic/node=%.1f MB",
                total_seconds / 60, init_seconds, compute_seconds / 60,
                communicate_seconds / 60, aggregate_seconds, traffic_bytes_per_node / 1e6);
  return buf;
}

namespace {

// The multiplier-heavy circuit the MPC calibration evaluates.
circuit::Circuit CalibrationCircuit() {
  circuit::Builder b;
  circuit::Word x = b.InputWord(32);
  circuit::Word y = b.InputWord(32);
  circuit::Word acc = b.Mul(x, y);
  for (int i = 0; i < 6; i++) {
    acc = b.Mul(acc, y);
  }
  b.OutputWord(acc);
  return b.Build();
}

}  // namespace

MicroCosts CalibrateBatched(int block_size, int message_bits, int batch_width) {
  DSTRESS_CHECK(block_size > 0 && message_bits > 0 && batch_width > 0);
  MicroCosts costs;
  costs.calibrated_block_size = block_size;
  costs.calibrated_message_bits = message_bits;

  circuit::Circuit circuit = CalibrationCircuit();
  circuit::EvalPlan plan(circuit);
  const size_t num_and = circuit.stats().num_and;

  std::unique_ptr<net::Transport> net_owner = net::MakeSimTransport(block_size);
  std::vector<net::NodeId> ids(block_size);
  for (int i = 0; i < block_size; i++) {
    ids[i] = i;
  }
  auto prg = crypto::ChaCha20Prg::FromSeed(11);
  // batch_width independent instances, each XOR-shared across the block.
  std::vector<std::vector<mpc::BitVector>> instance_shares;  // [instance][party]
  instance_shares.reserve(batch_width);
  for (int j = 0; j < batch_width; j++) {
    mpc::BitVector inputs(circuit.num_inputs(), 0);
    for (auto& bit : inputs) {
      bit = prg.NextBit() ? 1 : 0;
    }
    instance_shares.push_back(mpc::ShareBits(inputs, block_size, prg));
  }
  std::vector<mpc::DealerTripleSource> sources;
  sources.reserve(block_size);
  for (int p = 0; p < block_size; p++) {
    sources.emplace_back(p, block_size, 77);
  }

  // All roles of all instances advance in one lockstep call on this thread
  // — the runtime's single-scheduler mode. Triple draws are inside the
  // timed section, as in the runtime's compute phase. Best of a few
  // repetitions: one lockstep evaluation is only milliseconds, so a single
  // shot is at the mercy of scheduler noise.
  constexpr int kGmwReps = 3;
  double seconds = 0;
  for (int rep = 0; rep < kGmwReps; rep++) {
    Stopwatch timer;
    std::vector<mpc::BatchInstance> items;
    items.reserve(static_cast<size_t>(block_size) * batch_width);
    for (int p = 0; p < block_size; p++) {
      for (int j = 0; j < batch_width; j++) {
        mpc::BatchInstance item;
        item.plan = &plan;
        item.parties = ids;
        item.my_index = p;
        item.triples = sources[p].Generate(num_and);
        item.input_shares = instance_shares[j][p];
        item.order_key = static_cast<uint64_t>(j);
        items.push_back(std::move(item));
      }
    }
    mpc::EvalBatchInstances(net_owner.get(), /*session=*/0, std::move(items));
    double rep_seconds = timer.ElapsedSeconds();
    seconds = rep == 0 ? rep_seconds : std::min(seconds, rep_seconds);
  }
  costs.seconds_per_and = seconds / (static_cast<double>(num_and) * batch_width);
  // GMW online traffic per AND per member, from the transport's meter: every
  // repetition sent each instance's d,e openings from every member.
  costs.bytes_per_and = static_cast<double>(net_owner->TotalBytes()) /
                        (static_cast<double>(kGmwReps) * block_size * batch_width * num_and);

  // --- Transfer role costs through the batched wire-level engine, timed
  // kernel by kernel (wire bytes in, wire bytes out) without the transport.
  {
    auto prg = crypto::ChaCha20Prg::FromSeed(21);
    transfer::TransferParams params;
    params.block_size = block_size;
    params.message_bits = message_bits;
    params.budget_alpha = 0.9;
    params.dlog_range = params.RecommendedDlogRange(1e-9);

    transfer::BlockKeys dest_keys = transfer::TransferSetup(block_size, message_bits, prg);
    crypto::U256 neighbor_key = prg.NextScalar(crypto::CurveOrder());
    transfer::BlockCertificate cert =
        transfer::MakeBlockCertificate(transfer::PublicKeysOf(dest_keys), neighbor_key);
    crypto::DlogTable table(params.dlog_range);
    transfer::EvenNoiseCache noise(table.range());

    // Once-per-run cert table build (Project() charges it k1*D times per
    // node). Copies taken before the first Tables() call have an empty
    // cache, so each rep measures a real build.
    constexpr int kReps = 3;
    std::vector<transfer::BlockCertificate> cert_copies(kReps, cert);
    double build_seconds = 0;
    for (int rep = 0; rep < kReps; rep++) {
      Stopwatch timer;
      cert_copies[rep].Tables();
      double rep_seconds = timer.ElapsedSeconds();
      build_seconds = rep == 0 ? rep_seconds : std::min(build_seconds, rep_seconds);
    }
    costs.seconds_cert_table_build = build_seconds;
    cert = std::move(cert_copies[0]);  // tables already built: steady state

    mpc::BitVector share(message_bits, 0);
    for (auto& bit : share) {
      bit = prg.NextBit() ? 1 : 0;
    }
    std::vector<mpc::BitVector> member_shares(block_size, share);

    double encrypt_seconds = 0;
    std::vector<Bytes> bundles;
    for (int rep = 0; rep < kReps; rep++) {
      std::vector<crypto::ChaCha20Prg> prgs;
      for (int member = 0; member < block_size; member++) {
        prgs.push_back(crypto::ChaCha20Prg::FromSeed(100 + member));
      }
      Stopwatch timer;
      bundles = transfer::EncryptSubsharesWire(member_shares, cert, prgs);
      double rep_seconds = timer.ElapsedSeconds();
      encrypt_seconds = rep == 0 ? rep_seconds : std::min(encrypt_seconds, rep_seconds);
    }
    costs.seconds_bundle_encrypt = encrypt_seconds / block_size;

    Stopwatch timer;
    Bytes agg = transfer::AggregateSubsharesWire(bundles, params, prg, noise);
    for (int rep = 1; rep < kReps; rep++) {
      agg = transfer::AggregateSubsharesWire(bundles, params, prg, noise);
    }
    costs.seconds_source_endpoint = timer.ElapsedSeconds() / kReps;

    timer.Reset();
    std::vector<Bytes> columns = transfer::AdjustAndSplitWire(agg, neighbor_key, params);
    for (int rep = 1; rep < kReps; rep++) {
      columns = transfer::AdjustAndSplitWire(agg, neighbor_key, params);
    }
    costs.seconds_dest_adjust = timer.ElapsedSeconds() / kReps;

    std::vector<const transfer::MemberKeys*> member_keys;
    for (int member = 0; member < block_size; member++) {
      member_keys.push_back(&dest_keys.members[member]);
    }
    // The per-column c1 table build happens inside RecoverSharesWire, so it
    // is part of the measured per-use cost, as in the real schedule.
    timer.Reset();
    std::vector<mpc::BitVector> recovered;
    bool ok = transfer::RecoverSharesWire(columns, member_keys, table, params, &recovered);
    DSTRESS_CHECK(ok);
    costs.seconds_column_decrypt = timer.ElapsedSeconds() / block_size;
  }
  return costs;
}

Projection Project(const MicroCosts& costs, const ProjectionParams& p) {
  Projection out;
  const double k1 = p.block_size;
  const double d = p.degree_bound;
  const double iters = p.iterations;
  const double point = crypto::EcPoint::kCompressedSize;

  // Initialization: share split + distribution; compute cost is a few ns
  // per shared bit, traffic is one packed state per member.
  out.init_seconds = 1e-8 * k1 * p.state_bits;
  double init_traffic = k1 * (p.state_bits / 8.0);

  // Computation steps: a node serves in k+1 blocks and, per the paper's
  // conservative assumption, does not overlap them. I iterations plus the
  // final computation step.
  out.compute_seconds =
      (iters + 1) * k1 * static_cast<double>(p.update_and_gates) * costs.seconds_per_and;
  double compute_traffic =
      (iters + 1) * k1 * static_cast<double>(p.update_and_gates) * costs.bytes_per_and;

  // Communication steps, per iteration, per node:
  //  - as a member of k+1 blocks, encrypt one bundle per out-edge (D);
  //  - as source endpoint of its own D out-edges, aggregate + mask;
  //  - as destination endpoint of its D in-edges, adjust + fan out;
  //  - as a member of k+1 blocks, decrypt one column per in-edge (D).
  out.communicate_seconds =
      iters * (k1 * d * costs.seconds_bundle_encrypt + d * costs.seconds_source_endpoint +
               d * costs.seconds_dest_adjust + k1 * d * costs.seconds_column_decrypt);
  // Each node builds fixed-base key tables for every (block membership,
  // out-edge certificate) pair once per run, reused across all iterations'
  // encryptions.
  out.communicate_seconds += k1 * d * costs.seconds_cert_table_build;
  double bundle_bytes = (1.0 + k1 * p.message_bits) * point;
  double column_bytes = (1.0 + p.message_bits) * point;
  double communicate_traffic =
      iters * (k1 * d * bundle_bytes     // member -> source endpoint
               + d * bundle_bytes        // source endpoint -> destination
               + d * k1 * column_bytes);  // destination -> members

  // Aggregation tree: leaf groups in parallel, then the root combine with
  // in-MPC noising; two serial levels of MPC wall time.
  out.aggregate_seconds =
      static_cast<double>(p.aggregate_and_gates_per_group) * costs.seconds_per_and +
      static_cast<double>(p.combine_and_gates) * costs.seconds_per_and;
  double groups = static_cast<double>((p.num_nodes + p.aggregation_fanout - 1) /
                                      p.aggregation_fanout);
  // Per-node amortized aggregation traffic: forwarding the state shares
  // plus the (rare) leaf/root memberships' GMW traffic.
  double aggregate_traffic =
      k1 * (p.state_bits / 8.0) +
      (groups * k1 / p.num_nodes) *
          (static_cast<double>(p.aggregate_and_gates_per_group) * costs.bytes_per_and) +
      (k1 / p.num_nodes) * (static_cast<double>(p.combine_and_gates) * costs.bytes_per_and);

  out.total_seconds = out.init_seconds + out.compute_seconds + out.communicate_seconds +
                      out.aggregate_seconds;
  out.traffic_bytes_per_node =
      init_traffic + compute_traffic + communicate_traffic + aggregate_traffic;
  return out;
}

Projection ProjectWan(const MicroCosts& costs, const ProjectionParams& p,
                      const WanParams& wan) {
  Projection out = Project(costs, p);
  const double rtt = wan.rtt_ms / 1e3;
  const double k1 = p.block_size;
  const double iters = p.iterations;

  // GMW latency: each computation step runs update_and_depth communication
  // rounds; a node's k+1 serialized block memberships each pay them.
  out.compute_seconds += (iters + 1) * k1 * static_cast<double>(p.update_and_depth) * rtt;
  // Transfer latency: member -> i -> j -> member is three one-way hops per
  // communication step (edges within a step proceed in parallel).
  out.communicate_seconds += iters * 1.5 * rtt;
  // Aggregation: one hop to the leaf block, the leaf MPC's rounds, one hop
  // to the root, the root MPC's rounds.
  out.aggregate_seconds +=
      rtt + static_cast<double>(p.aggregate_and_depth) * rtt +
      rtt + static_cast<double>(p.combine_and_depth) * rtt;

  // Bandwidth: all of a node's traffic crosses its uplink.
  double uplink_bytes_per_second = wan.bandwidth_mbps * 1e6 / 8.0;
  double bandwidth_seconds = out.traffic_bytes_per_node / uplink_bytes_per_second;

  out.total_seconds = out.init_seconds + out.compute_seconds + out.communicate_seconds +
                      out.aggregate_seconds + bandwidth_seconds;
  return out;
}

}  // namespace dstress::costmodel
