// Tests for the src/ha fault-tolerance subsystem (docs/ha.md):
//
//  * ha::FailureDetector — the clock-free per-peer liveness state machine
//    the TCP driver's monitor thread runs;
//  * ha::ResumeLog + the seq-prefix helpers — exactly-once session resume
//    bookkeeping, including a randomized send/deliver/replay corpus;
//  * ha::RuntimeSnapshot — checkpoint codec, atomic save/load, and the
//    integrity/version/magic rejection paths;
//  * checkpoint-every + --resume through the engine over sim: a resumed
//    run, solo or ensemble, must release the same figures as the
//    uninterrupted run, and a checkpoint of another lane count is refused;
//  * ha::FaultyTransport — deterministic fault injection: a delay fault
//    must not perturb figures or traffic, and a kill on a backend without
//    process boundaries must wake blocked receivers with a clear abort.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cli/scenario.h"
#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/ensemble/ensemble.h"
#include "src/ha/checkpoint.h"
#include "src/ha/failure_detector.h"
#include "src/ha/faulty.h"
#include "src/ha/resume.h"
#include "src/net/sim_network.h"
#include "src/net/transport_spec.h"

namespace dstress::ha {
namespace {

// ---------------------------------------------------------------------------
// FailureDetector

constexpr FailureDetectorParams kParams{/*suspect_after_ms=*/1000,
                                        /*dead_after_ms=*/3000};

TEST(FailureDetectorTest, StaysAliveWhileHeartbeatsArrive) {
  FailureDetector fd(3, kParams, /*now_ms=*/0);
  for (int64_t t = 500; t <= 5000; t += 500) {
    fd.OnHeartbeat(0, t);
    fd.OnHeartbeat(1, t);
    fd.OnHeartbeat(2, t);
    EXPECT_TRUE(fd.Tick(t + 499).empty()) << "t=" << t;
  }
  for (int peer = 0; peer < 3; peer++) {
    EXPECT_EQ(fd.health(peer), PeerHealth::kAlive);
    EXPECT_EQ(fd.DeadForMs(peer, 6000), 0);
  }
}

TEST(FailureDetectorTest, SilenceDegradesToSuspectThenDead) {
  FailureDetector fd(2, kParams, /*now_ms=*/0);
  // Peer 1 keeps heartbeating; only peer 0 goes silent.
  fd.OnHeartbeat(1, 999);
  EXPECT_TRUE(fd.Tick(999).empty());
  std::vector<FailureDetector::Transition> t1 = fd.Tick(1000);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0].peer, 0);
  EXPECT_EQ(t1[0].from, PeerHealth::kAlive);
  EXPECT_EQ(t1[0].to, PeerHealth::kSuspect);
  EXPECT_EQ(fd.health(0), PeerHealth::kSuspect);
  EXPECT_EQ(fd.health(1), PeerHealth::kAlive);

  fd.OnHeartbeat(1, 2999);
  EXPECT_TRUE(fd.Tick(2999).empty());
  fd.OnHeartbeat(1, 3000);
  std::vector<FailureDetector::Transition> t2 = fd.Tick(3000);
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t2[0].peer, 0);
  EXPECT_EQ(t2[0].from, PeerHealth::kSuspect);
  EXPECT_EQ(t2[0].to, PeerHealth::kDead);
  EXPECT_EQ(fd.health(0), PeerHealth::kDead);
  // A dead peer does not re-transition on later ticks.
  fd.OnHeartbeat(1, 10000);
  EXPECT_TRUE(fd.Tick(10000).empty());
  EXPECT_EQ(fd.health(1), PeerHealth::kAlive);
}

TEST(FailureDetectorTest, LateTickJumpsStraightToDeadAndBackdatesTheDeath) {
  FailureDetector fd(1, kParams, /*now_ms=*/0);
  // A monitor stalled past both thresholds reports one alive->dead jump.
  std::vector<FailureDetector::Transition> t = fd.Tick(5000);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].from, PeerHealth::kAlive);
  EXPECT_EQ(t[0].to, PeerHealth::kDead);
  // The death is dated at silence-budget expiry (t=3000), not at the tick.
  EXPECT_EQ(fd.DeadForMs(0, 5000), 2000);
}

TEST(FailureDetectorTest, HeartbeatRevivesFromAnyState) {
  FailureDetector fd(1, kParams, /*now_ms=*/0);
  fd.Tick(1500);
  ASSERT_EQ(fd.health(0), PeerHealth::kSuspect);
  fd.OnHeartbeat(0, 1600);
  EXPECT_EQ(fd.health(0), PeerHealth::kAlive);

  fd.Tick(9999);
  ASSERT_EQ(fd.health(0), PeerHealth::kDead);
  fd.OnHeartbeat(0, 10000);  // a resumed session re-opens the window
  EXPECT_EQ(fd.health(0), PeerHealth::kAlive);
  EXPECT_EQ(fd.DeadForMs(0, 10000), 0);
  EXPECT_TRUE(fd.Tick(10999).empty());
}

TEST(FailureDetectorTest, ConnectionLossIsImmediateDeath) {
  FailureDetector fd(2, kParams, /*now_ms=*/0);
  fd.OnConnectionLoss(1, 100);  // way inside the silence budget
  EXPECT_EQ(fd.health(1), PeerHealth::kDead);
  EXPECT_EQ(fd.health(0), PeerHealth::kAlive);
  EXPECT_EQ(fd.DeadForMs(1, 2600), 2500);
  // Re-reporting the loss does not re-date the death.
  fd.OnConnectionLoss(1, 2000);
  EXPECT_EQ(fd.DeadForMs(1, 2600), 2500);
}

// ---------------------------------------------------------------------------
// Sequence-prefix helpers

TEST(SeqWrapTest, RoundTripsPayloads) {
  const Bytes payload = {9, 8, 7, 6, 5};
  Bytes wrapped = WrapSeq(0x1122334455667788ULL, payload);
  ASSERT_EQ(wrapped.size(), payload.size() + 8);
  EXPECT_EQ(PeekSeq(wrapped), 0x1122334455667788ULL);
  EXPECT_EQ(StripSeq(wrapped), payload);

  Bytes empty = WrapSeq(0, Bytes{});
  ASSERT_EQ(empty.size(), 8u);
  EXPECT_EQ(PeekSeq(empty), 0u);
  EXPECT_EQ(StripSeq(empty), Bytes{});
}

// ---------------------------------------------------------------------------
// ResumeLog

TEST(ResumeLogTest, SequencesAreIndependentPerChannel) {
  ResumeLog log(1 << 20);
  ChannelId a{0, 1, 5};
  ChannelId b{1, 0, 5};
  ChannelId c{0, 1, 6};
  EXPECT_EQ(log.NextSendSeq(a), 0u);
  EXPECT_EQ(log.NextSendSeq(a), 1u);
  EXPECT_EQ(log.NextSendSeq(b), 0u);
  EXPECT_EQ(log.NextSendSeq(c), 0u);
  EXPECT_EQ(log.NextSendSeq(a), 2u);
}

TEST(ResumeLogTest, DeliverAcceptsInOrderDropsDuplicatesAndStrays) {
  ResumeLog log(1 << 20);
  ChannelId ch{2, 3, 1};
  for (uint64_t seq = 0; seq < 4; seq++) {
    EXPECT_EQ(log.NextSendSeq(ch), seq);
    log.Buffer(ch, seq, Bytes{static_cast<uint8_t>(seq)});
  }
  EXPECT_EQ(log.buffered_frames(), 4u);
  EXPECT_EQ(log.buffered_bytes(), 4u);

  EXPECT_FALSE(log.Deliver(ch, 2));  // stray that overtook the replay
  EXPECT_TRUE(log.Deliver(ch, 0));
  EXPECT_FALSE(log.Deliver(ch, 0));  // duplicate
  EXPECT_TRUE(log.Deliver(ch, 1));
  EXPECT_EQ(log.buffered_frames(), 2u);
  EXPECT_EQ(log.buffered_bytes(), 2u);

  // Only seqs 2 and 3 are still undelivered, in order, on both endpoints'
  // replay sets; an uninvolved node sees nothing.
  for (int32_t node : {2, 3}) {
    std::vector<ResumeLog::ReplayFrame> replay = log.UndeliveredFor(node);
    ASSERT_EQ(replay.size(), 2u) << "node " << node;
    EXPECT_EQ(replay[0].from, 2);
    EXPECT_EQ(replay[0].encoded, Bytes{2});
    EXPECT_EQ(replay[1].encoded, Bytes{3});
  }
  EXPECT_TRUE(log.UndeliveredFor(7).empty());

  EXPECT_TRUE(log.Deliver(ch, 2));
  EXPECT_TRUE(log.Deliver(ch, 3));
  EXPECT_EQ(log.buffered_frames(), 0u);
  EXPECT_EQ(log.buffered_bytes(), 0u);
  EXPECT_TRUE(log.UndeliveredFor(2).empty());
}

// Randomized corpus: interleaved sends and in-order deliveries across many
// channels, mirrored by a reference model; every UndeliveredFor answer must
// equal the mirror's per-channel undelivered suffixes in channel order, and
// replaying them must deliver exactly once.
TEST(ResumeLogTest, RandomizedReplayCorpusMatchesReferenceModel) {
  struct Mirror {
    std::vector<Bytes> frames;
    uint64_t delivered = 0;
  };
  constexpr int kNodes = 4;
  std::vector<ChannelId> channels;
  for (int32_t from = 0; from < kNodes; from++) {
    for (int32_t to = 0; to < kNodes; to++) {
      if (from == to) continue;
      for (uint64_t session = 0; session < 2; session++) {
        channels.push_back(ChannelId{from, to, session});
      }
    }
  }

  Rng rng(4242);
  ResumeLog log(1 << 20);
  std::unordered_map<ChannelId, Mirror, ChannelIdHash> mirror;
  for (int step = 0; step < 4000; step++) {
    const ChannelId& ch = channels[rng.Below(channels.size())];
    Mirror& m = mirror[ch];
    if (m.delivered == m.frames.size() || rng.Bit()) {
      uint64_t seq = log.NextSendSeq(ch);
      ASSERT_EQ(seq, m.frames.size());
      Bytes frame{static_cast<uint8_t>(rng.Below(256)), static_cast<uint8_t>(seq),
                  static_cast<uint8_t>(ch.from)};
      log.Buffer(ch, seq, frame);
      m.frames.push_back(std::move(frame));
    } else {
      ASSERT_TRUE(log.Deliver(ch, m.delivered));
      m.delivered++;
      ASSERT_FALSE(log.Deliver(ch, m.delivered - 1));  // duplicate redelivery
    }
  }

  size_t undelivered = 0;
  for (const auto& [ch, m] : mirror) {
    undelivered += m.frames.size() - m.delivered;
  }
  EXPECT_EQ(log.buffered_frames(), undelivered);

  std::vector<ChannelId> ordered = channels;
  std::sort(ordered.begin(), ordered.end());
  for (int32_t node = 0; node < kNodes; node++) {
    std::vector<ResumeLog::ReplayFrame> want;
    for (const ChannelId& ch : ordered) {
      if (ch.from != node && ch.to != node) continue;
      auto it = mirror.find(ch);
      if (it == mirror.end()) continue;
      for (size_t i = it->second.delivered; i < it->second.frames.size(); i++) {
        want.push_back(ResumeLog::ReplayFrame{ch.from, it->second.frames[i]});
      }
    }
    std::vector<ResumeLog::ReplayFrame> got = log.UndeliveredFor(node);
    ASSERT_EQ(got.size(), want.size()) << "node " << node;
    for (size_t i = 0; i < got.size(); i++) {
      EXPECT_EQ(got[i].from, want[i].from) << "node " << node << " frame " << i;
      EXPECT_EQ(got[i].encoded, want[i].encoded) << "node " << node << " frame " << i;
    }
  }

  // Drain the corpus: every remaining frame delivers exactly once.
  for (auto& [ch, m] : mirror) {
    while (m.delivered < m.frames.size()) {
      ASSERT_TRUE(log.Deliver(ch, m.delivered));
      m.delivered++;
    }
    ASSERT_FALSE(log.Deliver(ch, m.frames.empty() ? 0 : m.delivered - 1));
  }
  EXPECT_EQ(log.buffered_frames(), 0u);
  EXPECT_EQ(log.buffered_bytes(), 0u);
}

void OverflowTinyBuffer() {
  ResumeLog log(/*max_buffered_bytes=*/16);
  ChannelId ch{0, 1, 0};
  log.Buffer(ch, log.NextSendSeq(ch), Bytes(32, 0xaa));
}

TEST(ResumeLogDeathTest, BufferOverflowAborts) {
  EXPECT_DEATH(OverflowTinyBuffer(), "resume buffer overflow");
}

// ---------------------------------------------------------------------------
// Checkpoints

RuntimeSnapshot MakeSnapshot() {
  RuntimeSnapshot s;
  s.config_fingerprint = 0xfeedfacecafebeefULL;
  s.next_iteration = 3;
  s.state_shares = {{mpc::BitVector{1, 0, 1}, mpc::BitVector{0, 0, 1}},
                    {mpc::BitVector{1, 1}, mpc::BitVector{}}};
  s.inmsg_shares = {{{mpc::BitVector{1}}, {mpc::BitVector{0, 1}, mpc::BitVector{1, 1}}},
                    {{}, {mpc::BitVector{0}}}};
  s.outmsg_shares = {{{mpc::BitVector{1, 0}}}};
  s.triple_cursors = {{/*tag=*/7, /*member=*/0, /*calls=*/41},
                      {/*tag=*/7, /*member=*/1, /*calls=*/41},
                      {/*tag=*/1ULL << 40, /*member=*/2, /*calls=*/0}};
  return s;
}

void ExpectSnapshotsEqual(const RuntimeSnapshot& a, const RuntimeSnapshot& b) {
  EXPECT_EQ(a.config_fingerprint, b.config_fingerprint);
  EXPECT_EQ(a.next_iteration, b.next_iteration);
  EXPECT_EQ(a.state_shares, b.state_shares);
  EXPECT_EQ(a.inmsg_shares, b.inmsg_shares);
  EXPECT_EQ(a.outmsg_shares, b.outmsg_shares);
  ASSERT_EQ(a.triple_cursors.size(), b.triple_cursors.size());
  for (size_t i = 0; i < a.triple_cursors.size(); i++) {
    EXPECT_EQ(a.triple_cursors[i].tag, b.triple_cursors[i].tag);
    EXPECT_EQ(a.triple_cursors[i].member, b.triple_cursors[i].member);
    EXPECT_EQ(a.triple_cursors[i].calls, b.triple_cursors[i].calls);
  }
}

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(getpid());
}

Bytes ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  Bytes out;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void WriteFileBytes(const std::string& path, const Bytes& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(CheckpointTest, CodecRoundTrips) {
  RuntimeSnapshot original = MakeSnapshot();
  RuntimeSnapshot decoded = DecodeSnapshot(EncodeSnapshot(original));
  ExpectSnapshotsEqual(decoded, original);
}

TEST(CheckpointTest, SaveLoadRoundTripsThroughAFile) {
  const std::string path = TempPath("ckpt_roundtrip");
  RuntimeSnapshot original = MakeSnapshot();
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
  // Overwrite is atomic: saving again over the same path must also work.
  ASSERT_TRUE(SaveSnapshot(path, original, &error)) << error;
  RuntimeSnapshot loaded;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &error)) << error;
  ExpectSnapshotsEqual(loaded, original);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsAnError) {
  RuntimeSnapshot snapshot;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(TempPath("ckpt_nonexistent"), &snapshot, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CheckpointTest, CorruptBodyFailsTheIntegrityCheck) {
  const std::string path = TempPath("ckpt_corrupt");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, MakeSnapshot(), &error)) << error;
  Bytes file = ReadFileBytes(path);
  // Flip one bit in the middle of the body (after the 12-byte header,
  // before the 32-byte trailing digest).
  ASSERT_GT(file.size(), 12u + 32u);
  file[file.size() / 2] ^= 0x01;
  WriteFileBytes(path, file);
  RuntimeSnapshot snapshot;
  EXPECT_FALSE(LoadSnapshot(path, &snapshot, &error));
  EXPECT_NE(error.find("integrity check"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointTest, BadMagicTruncationAndVersionAreRejected) {
  const std::string path = TempPath("ckpt_reject");
  std::string error;
  RuntimeSnapshot snapshot;

  WriteFileBytes(path, Bytes{'D', 'S', 'T', 'R'});
  EXPECT_FALSE(LoadSnapshot(path, &snapshot, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  ASSERT_TRUE(SaveSnapshot(path, MakeSnapshot(), &error)) << error;
  Bytes good = ReadFileBytes(path);

  Bytes bad_magic = good;
  bad_magic[0] = 'X';
  WriteFileBytes(path, bad_magic);
  EXPECT_FALSE(LoadSnapshot(path, &snapshot, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  Bytes bad_version = good;
  bad_version[8] = 0xff;  // u32 version lives right after the 8-byte magic
  WriteFileBytes(path, bad_version);
  EXPECT_FALSE(LoadSnapshot(path, &snapshot, &error));
  EXPECT_NE(error.find("format version"), std::string::npos) << error;

  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Engine-level checkpoint + resume over sim

engine::RunSpec CheckpointableSpec() {
  engine::RunSpec spec;
  spec.topology = engine::CorePeripheryTopology(8, 3);
  spec.model = engine::ContagionModel::kEisenbergNoe;
  spec.shock.shocked_banks = {0};
  spec.iterations = 5;
  spec.block_size = 3;
  spec.seed = 21;
  return spec;
}

// The same spec as a 3-lane ensemble: one lane per shocked bank.
engine::RunSpec CheckpointableEnsembleSpec() {
  engine::RunSpec spec = CheckpointableSpec();
  spec.ensemble.emplace();
  for (int bank : {0, 2, 5}) {
    ensemble::Scenario scenario;
    scenario.shock.shocked_banks = {bank};
    spec.ensemble->scenarios.push_back(scenario);
  }
  return spec;
}

// Per-lane released figures and references of one run of `spec`: Run() for
// a solo spec, RunEnsemble() for an ensemble.
struct LaneFigures {
  std::vector<int64_t> released;
  std::vector<uint64_t> references;
  core::RunMetrics metrics;
};

LaneFigures RunLanes(const engine::RunSpec& spec) {
  engine::Engine engine(spec);
  LaneFigures out;
  if (spec.ensemble.has_value()) {
    ensemble::EnsembleReport report = engine.RunEnsemble();
    for (const ensemble::ScenarioResult& lane : report.scenarios) {
      out.released.push_back(lane.released);
      out.references.push_back(lane.reference);
    }
    out.metrics = report.metrics;
  } else {
    engine::RunReport report = engine.Run();
    out.released.push_back(report.released);
    out.references.push_back(report.reference);
    out.metrics = report.metrics;
  }
  return out;
}

TEST(CheckpointResumeTest, SimResumeReleasesTheSameFigure) {
  // Checkpoints cover every lane count: a solo run and a 3-lane ensemble.
  for (const engine::RunSpec& spec : {CheckpointableSpec(), CheckpointableEnsembleSpec()}) {
    const size_t lanes = spec.ensemble.has_value() ? spec.ensemble->scenarios.size() : 1;
    SCOPED_TRACE(std::to_string(lanes) + " lane(s)");
    const std::string path = TempPath("ckpt_resume");
    std::remove(path.c_str());

    // Reference: the same run with checkpointing off.
    const LaneFigures ref = RunLanes(spec);
    ASSERT_EQ(ref.released.size(), lanes);

    // Checkpointing on: figures unchanged, snapshot left at iteration 4
    // with one share entry per (lane, vertex).
    engine::RunSpec ckpt_spec = spec;
    ckpt_spec.ha_checkpoint_every = 2;
    ckpt_spec.ha_checkpoint_path = path;
    const LaneFigures ckpt = RunLanes(ckpt_spec);
    EXPECT_EQ(ckpt.released, ref.released);
    EXPECT_EQ(ckpt.references, ref.references);
    EXPECT_GT(ckpt.metrics.ha_checkpoint_seconds, 0.0);

    RuntimeSnapshot snapshot;
    std::string error;
    ASSERT_TRUE(LoadSnapshot(path, &snapshot, &error)) << error;
    EXPECT_EQ(snapshot.next_iteration, 4);
    EXPECT_EQ(snapshot.state_shares.size(), lanes * 8);

    // Resume: iterations 0-3 are skipped, yet every lane's released figure
    // (and cleartext reference) must come out bit-identical — the fidelity
    // contract of docs/ha.md.
    engine::RunSpec resume_spec = ckpt_spec;
    resume_spec.ha_resume = true;
    const LaneFigures resumed = RunLanes(resume_spec);
    EXPECT_EQ(resumed.released, ref.released);
    EXPECT_EQ(resumed.references, ref.references);
    EXPECT_EQ(resumed.metrics.resumed_from_iteration, 4);
    std::remove(path.c_str());
  }
}

// The fingerprint does not cover the lane count, so resuming a solo run's
// checkpoint into an ensemble of the same spec must fail on the share
// array size, naming both counts.
TEST(CheckpointResumeDeathTest, LaneCountMismatchIsRejected) {
  const std::string path = TempPath("ckpt_lanes");
  engine::RunSpec solo = CheckpointableSpec();
  solo.ha_checkpoint_every = 2;
  solo.ha_checkpoint_path = path;
  engine::Engine(solo).Run();

  engine::RunSpec spec = CheckpointableEnsembleSpec();
  spec.ha_checkpoint_every = 2;
  spec.ha_checkpoint_path = path;
  spec.ha_resume = true;
  EXPECT_DEATH({ engine::Engine(spec).RunEnsemble(); },
               "holds 8 vertex entries, this run needs 24 \\(3 lanes x 8 vertices\\)");
  std::remove(path.c_str());
}

TEST(CheckpointResumeDeathTest, ForeignCheckpointIsRejected) {
  const std::string path = TempPath("ckpt_foreign");
  RuntimeSnapshot snapshot = MakeSnapshot();
  snapshot.config_fingerprint = 0xdeadULL;  // not this run's fingerprint
  std::string error;
  ASSERT_TRUE(SaveSnapshot(path, snapshot, &error)) << error;

  engine::RunSpec spec = CheckpointableSpec();
  spec.ha_checkpoint_every = 2;
  spec.ha_checkpoint_path = path;
  spec.ha_resume = true;
  EXPECT_DEATH({ engine::Engine(spec).Run(); }, "different run configuration");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FaultyTransport

TEST(FaultyTransportTest, ResolvesThroughTheRegistry) {
  RegisterHaTransports();
  EXPECT_TRUE(net::KnownTransportBackend("faulty"));
  net::TransportSpec spec;
  spec.backend = "faulty";
  spec.faulty_inner = "sim";
  std::unique_ptr<net::Transport> t = net::MakeTransport(spec, 4);
  EXPECT_EQ(t->num_nodes(), 4);
  t->Send(0, 1, Bytes{5}, 3);
  EXPECT_EQ(t->Recv(1, 0, 3), Bytes{5});
}

TEST(FaultyTransportTest, CountsSendsIncludingBatchElements) {
  net::TransportSpec spec;
  spec.backend = "faulty";
  spec.faulty_inner = "sim";
  FaultyTransport t(3, spec);
  t.Send(0, 1, Bytes{1}, 0);
  t.SendBatch(1, 2, {Bytes{2}, Bytes{3}, Bytes{4}}, 0);
  EXPECT_EQ(t.sends(), 4u);
}

// A delay fault perturbs timing only: the released figure, the cleartext
// reference and every per-bank traffic counter must equal the same run on
// the undecorated backend.
TEST(FaultyTransportTest, DelayFaultLeavesFiguresAndTrafficIdentical) {
  engine::Engine sim_engine(CheckpointableSpec());
  engine::RunReport sim = sim_engine.Run();

  engine::RunSpec faulty_spec = CheckpointableSpec();
  faulty_spec.transport.backend = "faulty";
  faulty_spec.transport.faulty_inner = "sim";
  net::FaultSpec delay;
  delay.action = net::FaultSpec::Action::kDelay;
  delay.delay_ms = 5;
  delay.after_sends = 10;
  faulty_spec.transport.faults = {delay};
  engine::Engine faulty_engine(faulty_spec);
  engine::RunReport faulty = faulty_engine.Run();

  EXPECT_EQ(faulty.released, sim.released);
  EXPECT_EQ(faulty.reference, sim.reference);
  for (int bank = 0; bank < 8; bank++) {
    net::TrafficStats a = faulty_engine.transport().NodeStats(bank);
    net::TrafficStats b = sim_engine.transport().NodeStats(bank);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "bank " << bank;
    EXPECT_EQ(a.bytes_received, b.bytes_received) << "bank " << bank;
    EXPECT_EQ(a.messages_sent, b.messages_sent) << "bank " << bank;
    EXPECT_EQ(a.messages_received, b.messages_received) << "bank " << bank;
  }
}

// On a backend without process boundaries, a kill fault declares the bank
// dead; a Recv on its channels must abort with a diagnostic instead of
// blocking forever.
TEST(FaultyTransportDeathTest, KillOnSimWakesReceiversWithAnError) {
  EXPECT_DEATH(
      {
        net::TransportSpec spec;
        spec.backend = "faulty";
        spec.faulty_inner = "sim";
        net::FaultSpec kill;
        kill.action = net::FaultSpec::Action::kKillNode;
        kill.node = 1;
        kill.after_sends = 1;
        spec.faults = {kill};
        FaultyTransport t(3, spec);
        t.Send(0, 2, Bytes{1}, 7);  // fires the kill of bank 1
        t.Recv(2, 1, 7);            // nothing from the dead bank: must abort
      },
      "woke on a dead peer");
}

// The satellite fix this PR makes to the demux core: a receiver already
// blocked inside Recv when the peer dies must wake and abort, not hang.
TEST(FaultyTransportDeathTest, BlockedRecvWakesWhenPeerIsDeclaredDead) {
  EXPECT_DEATH(
      {
        net::SimNetwork net(3);
        std::thread receiver([&net] { net.Recv(0, 1, 9); });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        net.DeclarePeerDead(1, "injected kill for test");
        receiver.join();
      },
      "woke on a dead peer");
}

// ---------------------------------------------------------------------------
// Scenario directives (docs/scenario-format.md, "ha" section)

TEST(HaScenarioTest, ParsesHaDirectivesAndFaultSchedule) {
  std::string error;
  auto spec = cli::ParseScenario(
      "network scale_free 8 2\n"
      "mode secure\n"
      "transport faulty sim\n"
      "ha on\n"
      "ha heartbeat_ms 100\n"
      "ha suspect_after_ms 400\n"
      "ha dead_after_ms 1200\n"
      "ha resume_timeout_ms 5000\n"
      "ha resume_buffer_mb 64\n"
      "ha respawn off\n"
      "ha checkpoint_every 2\n"
      "ha checkpoint_path /tmp/ha_scenario.ckpt\n"
      "ha fault kill 3 after_sends 500\n"
      "ha fault delay 25 after_sends 100\n"
      "seed 9\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->transport.backend, "faulty");
  EXPECT_EQ(spec->transport.faulty_inner, "sim");
  const net::HaSpec& ha = spec->transport.ha;
  EXPECT_TRUE(ha.enabled);
  EXPECT_EQ(ha.heartbeat_ms, 100);
  EXPECT_EQ(ha.suspect_after_ms, 400);
  EXPECT_EQ(ha.dead_after_ms, 1200);
  EXPECT_EQ(ha.resume_timeout_ms, 5000);
  EXPECT_EQ(ha.resume_buffer_bytes, size_t{64} << 20);
  EXPECT_FALSE(ha.auto_respawn);
  EXPECT_EQ(spec->ha_checkpoint_every, 2);
  EXPECT_EQ(spec->ha_checkpoint_path, "/tmp/ha_scenario.ckpt");
  ASSERT_EQ(spec->transport.faults.size(), 2u);
  EXPECT_EQ(spec->transport.faults[0].action, net::FaultSpec::Action::kKillNode);
  EXPECT_EQ(spec->transport.faults[0].node, 3);
  EXPECT_EQ(spec->transport.faults[0].after_sends, 500u);
  EXPECT_EQ(spec->transport.faults[1].action, net::FaultSpec::Action::kDelay);
  EXPECT_EQ(spec->transport.faults[1].delay_ms, 25);
}

TEST(HaScenarioTest, RejectsInvalidHaCombinations) {
  struct Case {
    const char* text;
    const char* expected_error;
  };
  const Case cases[] = {
      {"network scale_free 8 2\nha fault kill 1 after_sends 10\n",
       "'ha fault' directives require 'transport faulty"},
      {"network scale_free 8 2\ntransport faulty sim\nha fault kill 20 after_sends 10\n",
       "ha fault bank 20 out of range"},
      {"network scale_free 8 2\nha suspect_after_ms 2000\nha dead_after_ms 500\n",
       "ha dead_after_ms must be >= suspect_after_ms"},
      {"network scale_free 8 2\nha checkpoint_every 2\n",
       "'ha checkpoint_every' requires 'ha checkpoint_path"},
      {"network scale_free 8 2\ntransport faulty pigeon\n",
       "usage: transport faulty <sim|tcp>"},
      {"network scale_free 8 2\nha fault explode 1 after_sends 10\n",
       "ha fault action must be"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto spec = cli::ParseScenario(c.text, &error);
    EXPECT_FALSE(spec.has_value()) << c.text;
    EXPECT_NE(error.find(c.expected_error), std::string::npos)
        << "scenario:\n" << c.text << "error was: " << error;
  }
}

}  // namespace
}  // namespace dstress::ha
