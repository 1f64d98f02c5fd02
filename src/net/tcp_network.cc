#include "src/net/tcp_network.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <shared_mutex>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/net/tcp_node.h"

namespace dstress::net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

pid_t TcpNetwork::SpawnNodeProcess(NodeId node, bool resume) const {
  std::string node_arg = std::to_string(node);
  std::string n_arg = std::to_string(num_nodes_);
  std::string driver_arg = dial_host_ + ":" + std::to_string(rendezvous_port_);
  std::string timeout_arg = std::to_string(spec_.bootstrap_timeout_ms);
  pid_t pid = fork();
  DSTRESS_CHECK(pid >= 0);
  if (pid != 0) {
    return pid;
  }
  // Child: exec the dstress_node runner. Only fork+exec happens here, so
  // spawning from the HA monitor thread (respawn) is safe.
  if (resume) {
    execl(spec_.node_program.c_str(), spec_.node_program.c_str(), "--node", node_arg.c_str(),
          "--num-nodes", n_arg.c_str(), "--driver", driver_arg.c_str(),
          "--bootstrap-timeout-ms", timeout_arg.c_str(), "--resume",
          static_cast<char*>(nullptr));
  } else {
    execl(spec_.node_program.c_str(), spec_.node_program.c_str(), "--node", node_arg.c_str(),
          "--num-nodes", n_arg.c_str(), "--driver", driver_arg.c_str(),
          "--bootstrap-timeout-ms", timeout_arg.c_str(), static_cast<char*>(nullptr));
  }
  _exit(127);
}

void TcpNetwork::SpawnNodes(const TransportSpec& spec, int listen_fd, int rendezvous_port) {
  for (NodeId node = 0; node < num_nodes_; node++) {
    if (!spec.node_program.empty()) {
      // Exec mode: spawn the dstress_node runner (the real one-process-per-
      // bank deployment shape). The listen fd is CLOEXEC.
      links_[node] = std::make_unique<Link>();
      links_[node]->pid = SpawnNodeProcess(node, /*resume=*/false);
      continue;
    }
    pid_t pid = fork();
    DSTRESS_CHECK(pid >= 0);
    if (pid != 0) {
      links_[node] = std::make_unique<Link>();  // fd filled in at HELLO time
      links_[node]->pid = pid;
      continue;
    }
    // Fork mode: run the node loop directly in the child. Fork happens
    // before this transport creates any thread; callers construct the
    // transport before their worker pools for the same reason.
    close(listen_fd);
    TcpNodeConfig config;
    config.node_id = node;
    config.num_nodes = num_nodes_;
    config.driver_host = dial_host_;
    config.driver_port = rendezvous_port;
    config.bootstrap_timeout_ms = spec.bootstrap_timeout_ms;
    _exit(RunTcpNode(config) == 0 ? 0 : 1);
  }
}

TcpNetwork::TcpNetwork(int num_nodes, const TransportSpec& spec)
    : ChannelDemuxTransport(num_nodes, spec.options), ha_(spec.ha.enabled), spec_(spec) {
  links_.resize(num_nodes);
  endpoints_.resize(num_nodes);

  // Rendezvous: bind first so every node can dial immediately. The bind
  // interface may differ from the address nodes dial (listen_host
  // "0.0.0.0" on a multi-homed driver).
  const std::string& bind_host = spec.listen_host.empty() ? spec.host : spec.listen_host;
  dial_host_ = spec.advertise_host.empty() ? spec.host : spec.advertise_host;
  if (spec.external_nodes && spec.port == 0) {
    std::fprintf(stderr, "tcp bootstrap: external_nodes needs a fixed rendezvous port"
                 " (operators must know where to point dstress_node)\n");
    DSTRESS_CHECK(false);
  }
  DSTRESS_CHECK(spec.node_endpoints.empty() ||
                static_cast<int>(spec.node_endpoints.size()) == num_nodes);
  int listen_fd = TcpListen(bind_host, spec.port, /*backlog=*/num_nodes);
  fcntl(listen_fd, F_SETFD, FD_CLOEXEC);
  rendezvous_port_ = TcpListenPort(listen_fd);
  if (!spec.external_nodes) {
    SpawnNodes(spec, listen_fd, rendezvous_port_);
  }

  // HELLO: map each accepted connection to its bank and learn the mesh
  // endpoint it advertises to its peers.
  for (int pending = num_nodes; pending > 0; pending--) {
    std::string accept_error;
    int fd = TcpAccept(listen_fd, spec.bootstrap_timeout_ms, &accept_error);
    if (fd < 0) {
      std::string missing;
      for (NodeId node = 0; node < num_nodes; node++) {
        if (links_[node] == nullptr || links_[node]->fd < 0) {
          missing += missing.empty() ? std::to_string(node) : " " + std::to_string(node);
        }
      }
      std::fprintf(stderr, "tcp bootstrap: only %d of %d banks registered within %d ms;"
                   " aborting (a bank process never dialed %s:%d; missing bank(s): %s; %s)\n",
                   num_nodes - pending, num_nodes, spec.bootstrap_timeout_ms,
                   bind_host.c_str(), rendezvous_port_, missing.c_str(), accept_error.c_str());
      DSTRESS_CHECK(false);
    }
    FrameDecoder decoder;
    WireFrame frame;
    DSTRESS_CHECK(TcpReadFrameTimed(fd, &decoder, &frame, spec.bootstrap_timeout_ms));
    NodeId node = -1;
    PeerEndpoint endpoint;
    ParseHelloFrame(frame, &node, &endpoint);
    DSTRESS_CHECK(node >= 0 && node < num_nodes);
    if (spec.external_nodes && links_[node] == nullptr) {
      links_[node] = std::make_unique<Link>();  // pid stays -1: not ours to reap
    }
    if (links_[node]->fd >= 0) {
      std::fprintf(stderr, "tcp bootstrap: bank %d registered twice (second HELLO advertised"
                   " %s) — duplicate --bank in the deployment?\n",
                   node, endpoint.ToString().c_str());
      DSTRESS_CHECK(false);
    }
    if (!spec.node_endpoints.empty()) {
      const PeerEndpoint& expected = spec.node_endpoints[node];
      if ((!expected.host.empty() && expected.host != endpoint.host) ||
          (expected.port != 0 && expected.port != endpoint.port)) {
        std::fprintf(stderr, "tcp bootstrap: bank %d advertised %s but the scenario placed it"
                     " at %s\n", node, endpoint.ToString().c_str(),
                     expected.ToString().c_str());
        DSTRESS_CHECK(false);
      }
    }
    links_[node]->fd = fd;
    links_[node]->decoder = std::move(decoder);
    endpoints_[node] = std::move(endpoint);
    // Partial-mesh progress for multi-machine operators: who is in, who is
    // still being waited for.
    std::fprintf(stderr, "tcp bootstrap: bank %d registered from %s (%d/%d banks in)\n", node,
                 endpoints_[node].ToString().c_str(), num_nodes - pending + 1, num_nodes);
  }

  // PEERS out, READY back: the mesh is up once every bank confirms.
  Bytes peers = EncodeFrame(MakePeersFrame(endpoints_, ha_));
  for (auto& link : links_) {
    DSTRESS_CHECK(TcpWriteAll(link->fd, peers.data(), peers.size()));
  }
  for (NodeId node = 0; node < num_nodes; node++) {
    WireFrame frame;
    DSTRESS_CHECK(TcpReadFrameTimed(links_[node]->fd, &links_[node]->decoder, &frame,
                                    spec.bootstrap_timeout_ms));
    DSTRESS_CHECK(ParseReadyFrame(frame) == node);
  }

  for (NodeId node = 0; node < num_nodes; node++) {
    links_[node]->out = std::make_unique<FrameWriterQueue>();
    links_[node]->out->Start(links_[node]->fd);
    StartReader(node);
  }

  if (ha_) {
    // The rendezvous listener stays open: it is where a crashed bank's
    // replacement (or a bank whose driver link dropped) re-dials.
    listen_fd_ = listen_fd;
    resume_log_ = std::make_unique<ha::ResumeLog>(spec.ha.resume_buffer_bytes);
    ha::FailureDetectorParams params;
    params.suspect_after_ms = spec.ha.suspect_after_ms;
    params.dead_after_ms = spec.ha.dead_after_ms;
    detector_ = std::make_unique<ha::FailureDetector>(num_nodes, params, NowMs());
    acceptor_ = std::thread([this] { AcceptorLoop(); });
    monitor_ = std::thread([this] { MonitorLoop(); });
  } else {
    close(listen_fd);
  }
}

TcpNetwork::~TcpNetwork() {
  shutting_down_.store(true, std::memory_order_release);
  if (monitor_.joinable()) {
    monitor_.join();
  }
  if (ha_) {
    // Tell the banks this is a deliberate teardown, so their relay loops
    // treat the following EOF as clean instead of attempting a resume.
    Bytes bye = EncodeFrame(MakeShutdownFrame());
    std::shared_lock<std::shared_mutex> attach_guard(channels_mu_);
    for (auto& link : links_) {
      if (link->down.load(std::memory_order_acquire)) continue;
      std::lock_guard<std::mutex> lock(link->send_mu);
      link->out->Push(bye);
    }
  }
  // Drain every outgoing queue, then half-close: the nodes see driver EOF,
  // cascade their own shutdown, and our readers exit on their EOFs.
  for (auto& link : links_) {
    if (link->out) link->out->CloseAndJoin();
  }
  for (auto& link : links_) {
    if (link->fd >= 0) shutdown(link->fd, SHUT_WR);
  }
  for (auto& link : links_) {
    if (link->reader.joinable()) link->reader.join();
    if (link->fd >= 0) close(link->fd);
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
  for (auto& link : links_) {
    pid_t pid = link->pid.load(std::memory_order_relaxed);
    if (pid > 0) {  // external nodes are not our children
      int status = 0;
      waitpid(pid, &status, 0);
    }
  }
}

void TcpNetwork::Send(NodeId from, NodeId to, Bytes message, SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  DSTRESS_CHECK(session != kControlSession);
  traffic_started_.store(true, std::memory_order_release);
  size_t len = message.size();
  WireFrame frame;
  frame.from = from;
  frame.to = to;
  frame.session = session;
  frame.payload = std::move(message);
  Link& link = *links_[from];
  {
    // The shared lock serializes the observer load against SetObserver's
    // exclusive attach (see channel_demux.h); send_mu orders OnSend with
    // the wire per sending bank.
    std::shared_lock<std::shared_mutex> attach_guard(channels_mu_);
    std::lock_guard<std::mutex> lock(link.send_mu);
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    if (observer != nullptr) {
      observer->OnSend(from, to, session, frame.payload);
    }
    Bytes encoded;
    if (ha_) {
      // Sequence assignment and the queue push stay under send_mu so wire
      // order matches sequence order on every channel of this bank.
      ha::ChannelId ch{from, to, session};
      std::lock_guard<std::mutex> ha_lock(ha_mu_);
      uint64_t seq = resume_log_->NextSendSeq(ch);
      frame.payload = ha::WrapSeq(seq, frame.payload);
      encoded = EncodeFrame(frame);
      resume_log_->Buffer(ch, seq, encoded);
    } else {
      encoded = EncodeFrame(frame);
    }
    link.out->Push(std::move(encoded));
  }
  MeterSend(from, len, 1);
}

void TcpNetwork::SendBatch(NodeId from, NodeId to, std::vector<Bytes> messages,
                           SessionId session) {
  DSTRESS_DCHECK(from >= 0 && from < num_nodes_ && to >= 0 && to < num_nodes_);
  DSTRESS_CHECK(session != kControlSession);
  if (messages.empty()) {
    return;
  }
  traffic_started_.store(true, std::memory_order_release);
  uint64_t total_len = 0;
  size_t count = messages.size();
  for (const Bytes& payload : messages) {
    total_len += payload.size();
  }
  Link& link = *links_[from];
  {
    std::shared_lock<std::shared_mutex> attach_guard(channels_mu_);
    std::lock_guard<std::mutex> lock(link.send_mu);
    NetworkObserver* observer = observer_.load(std::memory_order_acquire);
    if (observer != nullptr) {
      for (const Bytes& payload : messages) {
        observer->OnSend(from, to, session, payload);
      }
    }
    WireFrame frame;
    frame.from = from;
    frame.to = to;
    frame.session = session;
    std::vector<Bytes> encoded;
    encoded.reserve(count);
    if (ha_) {
      ha::ChannelId ch{from, to, session};
      std::lock_guard<std::mutex> ha_lock(ha_mu_);
      for (Bytes& payload : messages) {
        uint64_t seq = resume_log_->NextSendSeq(ch);
        frame.payload = ha::WrapSeq(seq, payload);
        encoded.push_back(EncodeFrame(frame));
        resume_log_->Buffer(ch, seq, encoded.back());
      }
    } else {
      for (Bytes& payload : messages) {
        frame.payload = std::move(payload);
        encoded.push_back(EncodeFrame(frame));
      }
    }
    link.out->PushAll(std::move(encoded));
  }
  MeterSend(from, total_len, count);
}

void TcpNetwork::StartReader(NodeId bank) {
  Link& link = *links_[bank];
  int fd = link.fd;
  link.reader = std::thread(
      [this, bank, fd, decoder = std::move(link.decoder)]() mutable {
        ReaderLoop(bank, fd, std::move(decoder));
      });
}

void TcpNetwork::ReaderLoop(NodeId bank, int fd, FrameDecoder decoder) {
  WireFrame frame;
  while (TcpReadFrame(fd, &decoder, &frame)) {
    if (frame.session == kControlSession) {
      // The only control frame a bank sends mid-run is the heartbeat ack.
      DSTRESS_CHECK(ControlFrameType(frame) == kCtrlHeartbeatAck);
      NodeId node = -1;
      uint64_t seq = 0;
      ParseHeartbeatAckFrame(frame, &node, &seq);
      DSTRESS_CHECK(node == bank);
      ha_control_bytes_.fetch_add(kWireFrameOverhead + frame.payload.size(),
                                  std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(ha_mu_);
      detector_->OnHeartbeat(bank, NowMs());
      continue;
    }
    // A bank only forwards frames addressed to itself.
    DSTRESS_CHECK(frame.to == bank && frame.from >= 0 && frame.from < num_nodes_);
    Bytes payload = std::move(frame.payload);
    if (ha_) {
      uint64_t seq = ha::PeekSeq(payload);
      bool deliver;
      {
        std::lock_guard<std::mutex> lock(ha_mu_);
        deliver = resume_log_->Deliver(ha::ChannelId{frame.from, frame.to, frame.session}, seq);
      }
      // Duplicates (already delivered before a replay) and strays that
      // overtook a replay are dropped: the replay carries every pending
      // sequence in order, so the channel stays exactly-once FIFO.
      if (!deliver) continue;
      payload = ha::StripSeq(std::move(payload));
    }
    Channel& ch = ChannelFor(ChannelKey{frame.from, frame.to, frame.session});
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      ch.queued_bytes += payload.size();
      ch.queue.emplace_back(std::move(payload));
      CheckWatermark(ch);
    }
    ch.cv.notify_one();
  }
  // EOF is the shutdown cascade finishing; mid-run it means the bank (or
  // its link) died — with HA on, that is the failure detector's business.
  if (shutting_down_.load(std::memory_order_acquire)) {
    return;
  }
  if (ha_) {
    std::fprintf(stderr, "tcp ha: bank %d link dropped mid-run; awaiting session resume\n",
                 bank);
    links_[bank]->down.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(ha_mu_);
    detector_->OnConnectionLoss(bank, NowMs());
    return;
  }
  DSTRESS_CHECK(shutting_down_.load(std::memory_order_acquire));
}

void TcpNetwork::MonitorLoop() {
  int64_t last_beat_ms = 0;
  uint64_t beat_seq = 0;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int64_t now = NowMs();
    if (now - last_beat_ms >= spec_.ha.heartbeat_ms) {
      last_beat_ms = now;
      Bytes beat = EncodeFrame(MakeHeartbeatFrame(beat_seq++));
      std::shared_lock<std::shared_mutex> attach_guard(channels_mu_);
      for (NodeId node = 0; node < num_nodes_; node++) {
        Link& link = *links_[node];
        if (link.down.load(std::memory_order_acquire)) continue;
        std::lock_guard<std::mutex> lock(link.send_mu);
        link.out->Push(beat);
        ha_control_bytes_.fetch_add(beat.size(), std::memory_order_relaxed);
      }
    }
    std::vector<ha::FailureDetector::Transition> transitions;
    std::vector<NodeId> lost;
    {
      std::lock_guard<std::mutex> lock(ha_mu_);
      transitions = detector_->Tick(now);
      for (NodeId node = 0; node < num_nodes_; node++) {
        if (detector_->DeadForMs(node, now) > spec_.ha.resume_timeout_ms) {
          lost.push_back(node);
        }
      }
    }
    for (const auto& t : transitions) {
      std::fprintf(stderr, "tcp ha: failure detector: bank %d %s -> %s\n", t.peer,
                   ha::PeerHealthName(t.from), ha::PeerHealthName(t.to));
    }
    // Past the resume budget: stop waiting and fail the blocked receivers
    // loudly (DeclarePeerDead takes channels_mu_, so it runs outside
    // ha_mu_ per the lock order).
    for (NodeId node : lost) {
      if (PeerDead(node)) continue;
      DeclarePeerDead(node, "bank " + std::to_string(node) + " did not resume within " +
                                std::to_string(spec_.ha.resume_timeout_ms) +
                                " ms (ha resume_timeout_ms)");
    }
    // Respawn driver-spawned banks that died, handing the replacement
    // --resume so it re-joins the session (exec mode only: a forked
    // in-library node has no binary to re-exec).
    if (!spec_.ha.auto_respawn) continue;
    for (NodeId node = 0; node < num_nodes_; node++) {
      Link& link = *links_[node];
      if (!link.down.load(std::memory_order_acquire) || link.respawned) continue;
      pid_t pid = link.pid.load(std::memory_order_relaxed);
      if (pid <= 0 || spec_.node_program.empty()) {
        link.respawned = true;
        std::fprintf(stderr, "tcp ha: cannot auto-respawn bank %d (%s); waiting for an"
                     " external `dstress_node --resume`\n", node,
                     pid <= 0 ? "externally started bank" : "fork-mode bank, no node_program");
        continue;
      }
      // Only a bank whose process exited is respawned. A dropped link whose
      // process still runs is a transient drop the bank resumes by itself;
      // a blocking waitpid on it would wedge this thread until the bank
      // exits, which it only does after the destructor, blocked joining this
      // thread, sends the shutdown.
      int status = 0;
      if (waitpid(pid, &status, WNOHANG) == 0) continue;
      link.respawned = true;
      pid_t fresh = SpawnNodeProcess(node, /*resume=*/true);
      link.pid.store(fresh, std::memory_order_relaxed);
      std::fprintf(stderr, "tcp ha: respawned bank %d with --resume (pid %d)\n", node,
                   static_cast<int>(fresh));
    }
  }
}

void TcpNetwork::AcceptorLoop() {
  while (!shutting_down_.load(std::memory_order_acquire)) {
    int fd = TcpAccept(listen_fd_, /*timeout_ms=*/200);
    if (fd < 0) continue;  // tick: re-check shutting_down_
    if (shutting_down_.load(std::memory_order_acquire)) {
      close(fd);
      return;
    }
    FrameDecoder decoder;
    WireFrame frame;
    if (!TcpReadFrameTimed(fd, &decoder, &frame, spec_.ha.resume_timeout_ms)) {
      close(fd);  // dialer went away again before identifying itself
      continue;
    }
    DSTRESS_CHECK(ControlFrameType(frame) == kCtrlResumeHello);
    NodeId node = -1;
    PeerEndpoint endpoint;
    bool full_mesh = false;
    ParseResumeHelloFrame(frame, &node, &endpoint, &full_mesh);
    HandleResume(node, endpoint, fd, std::move(decoder));
  }
}

void TcpNetwork::HandleResume(NodeId node, const PeerEndpoint& endpoint, int fd,
                              FrameDecoder decoder) {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  Link& link = *links_[node];
  std::fprintf(stderr, "tcp ha: bank %d re-dialed from %s; resuming session\n", node,
               endpoint.ToString().c_str());
  // Quiesce the old session's reader before taking channels_mu_: a reader
  // mid-delivery needs that lock (shared) to finish, so joining under the
  // exclusive lock would deadlock.
  if (link.fd >= 0) shutdown(link.fd, SHUT_RDWR);
  if (link.reader.joinable()) link.reader.join();
  {
    std::unique_lock<std::shared_mutex> guard(channels_mu_);
    if (link.out) link.out->CloseAndJoin();
    if (link.fd >= 0) close(link.fd);
    link.fd = fd;
    endpoints_[node] = endpoint;
    // Handshake on the fresh socket: PEERS (the bank may have restarted
    // with no endpoint table), then wait for RESUME_READY — the bank's
    // confirmation that its mesh links are wired — before replaying.
    Bytes peers = EncodeFrame(MakePeersFrame(endpoints_, /*ha_enabled=*/true));
    DSTRESS_CHECK(TcpWriteAll(fd, peers.data(), peers.size()));
    ha_control_bytes_.fetch_add(peers.size(), std::memory_order_relaxed);
    WireFrame ready;
    DSTRESS_CHECK(TcpReadFrameTimed(fd, &decoder, &ready, spec_.ha.resume_timeout_ms));
    DSTRESS_CHECK(ParseResumeReadyFrame(ready) == node);
    link.out = std::make_unique<FrameWriterQueue>();
    link.out->Start(fd);
    // Replay every undelivered frame touching the bank. Sends are blocked
    // (they hold channels_mu_ shared), so pushing straight onto the from-
    // banks' queues splices the replay into each channel's FIFO cleanly.
    std::vector<ha::ResumeLog::ReplayFrame> replay;
    {
      std::lock_guard<std::mutex> ha_lock(ha_mu_);
      replay = resume_log_->UndeliveredFor(node);
      detector_->OnHeartbeat(node, NowMs());  // fresh silence window
    }
    for (auto& f : replay) {
      ha_control_bytes_.fetch_add(f.encoded.size(), std::memory_order_relaxed);
      links_[f.from]->out->Push(std::move(f.encoded));
    }
    link.down.store(false, std::memory_order_release);
    link.respawned = false;
    link.decoder = std::move(decoder);
    StartReader(node);
    ha_resumes_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "tcp ha: bank %d session resumed (%zu frames replayed)\n", node,
                 replay.size());
  }
}

void TcpNetwork::InjectNodeKill(NodeId node) {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  DSTRESS_CHECK(ha_);  // without the HA layer nobody would recover
  pid_t pid = links_[node]->pid.load(std::memory_order_relaxed);
  if (pid <= 0) {
    std::fprintf(stderr, "tcp ha: fault injection: cannot kill bank %d — it is not a"
                 " driver-spawned process\n", node);
    DSTRESS_CHECK(false);
  }
  std::fprintf(stderr, "tcp ha: fault injection: SIGKILL bank %d (pid %d)\n", node,
               static_cast<int>(pid));
  kill(pid, SIGKILL);
}

void TcpNetwork::InjectLinkDrop(NodeId node) {
  DSTRESS_CHECK(node >= 0 && node < num_nodes_);
  DSTRESS_CHECK(ha_);
  std::fprintf(stderr, "tcp ha: fault injection: severing the driver link to bank %d\n", node);
  // The shared lock pins link.fd against a concurrent resume swap.
  std::shared_lock<std::shared_mutex> guard(channels_mu_);
  shutdown(links_[node]->fd, SHUT_RDWR);
}

}  // namespace dstress::net
