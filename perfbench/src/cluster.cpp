// The deployment under test: a primary whose in-daemon LogShipper feeds
// one follower, both serving over loopback TCP.
//
//  * DaemonCluster (untraced runs): two forked `communix_server`
//    processes — the binary that ships, started with the flags a real
//    deployment uses.
//  * HostedCluster (traced runs): the same tiers hosted inside the
//    benchmark process, wired exactly as tools/communix_server_main.cpp
//    wires them (one registry per node, runtime probe, TcpServer, the
//    shipper over ReconnectingTcpClient, a 0.5 s save loop), so that
//    decorators can wrap the public seams: each node's
//    net::RequestHandler and the shipper's ClientTransport.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/select.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "communix/cluster/log_shipper.hpp"
#include "communix/server.hpp"
#include "dimmunix/runtime.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace perfbench {
namespace {

namespace net = communix::net;
using communix::CommunixServer;
using communix::ServerRole;

/// Binds an ephemeral loopback port and releases it, so the primary can
/// be told where its follower will listen before the follower exists.
std::uint16_t ReservePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Forked daemons.
// ---------------------------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Terminate(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const std::string& binary, const std::vector<std::string>& args,
               const std::string& log_path) {
    int fds[2];
    if (::pipe(fds) != 0) return Status::Error(ErrorCode::kInternal, "pipe");
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::Error(ErrorCode::kInternal, "fork");
    }
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    return WaitForListening();
  }

  /// SIGTERM (the daemon saves its db), then reap; SIGKILL after 20 s.
  void Terminate() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      for (int i = 0; i < 2000; ++i) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  std::uint16_t port() const { return port_; }
  double PeakRssMb() const {
    return pid_ > 0 ? VmHwmMb("/proc/" + std::to_string(pid_) + "/status") : 0;
  }

 private:
  Status WaitForListening() {
    static constexpr char kMarker[] = "listening on 127.0.0.1:";
    std::string captured;
    for (int rounds = 0; rounds < 200; ++rounds) {  // <= 10 s
      fd_set set;
      FD_ZERO(&set);
      FD_SET(out_fd_, &set);
      timeval tv{0, 50'000};
      if (::select(out_fd_ + 1, &set, nullptr, nullptr, &tv) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;  // daemon died (bind failure, bad flags)
      captured.append(buf, static_cast<std::size_t>(n));
      const auto pos = captured.find(kMarker);
      if (pos == std::string::npos) continue;
      const auto end = captured.find(' ', pos + std::strlen(kMarker));
      if (end == std::string::npos) continue;
      port_ = static_cast<std::uint16_t>(
          std::atoi(captured.c_str() + pos + std::strlen(kMarker)));
      if (port_ != 0) return Status::Ok();
    }
    Terminate();
    return Status::Error(ErrorCode::kUnavailable, "daemon did not start");
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

class DaemonCluster final : public Cluster {
 public:
  DaemonCluster(const Env& env, std::string dir)
      : env_(env), dir_(std::move(dir)), follower_port_(ReservePort()) {}
  ~DaemonCluster() override { Stop(); }

  Status StartPrimary() override {
    return primary_.Start(
        env_.server_binary,
        {"--port", "0", "--db", dir_ + "/primary.db", "--follower",
         "127.0.0.1:" + std::to_string(follower_port_)},
        dir_ + "/primary.log");
  }
  Status StartFollower() override {
    return follower_.Start(env_.server_binary,
                           {"--port", std::to_string(follower_port_), "--db",
                            dir_ + "/follower.db", "--role", "follower"},
                           dir_ + "/follower.log");
  }
  std::uint16_t primary_port() const override { return primary_.port(); }
  std::uint16_t follower_port() const override { return follower_port_; }
  double PeakRssMb() const override {
    return primary_.PeakRssMb() + follower_.PeakRssMb();
  }
  void Stop() override {
    primary_.Terminate();
    follower_.Terminate();
  }

 private:
  const Env& env_;
  std::string dir_;
  std::uint16_t follower_port_;
  Daemon primary_;
  Daemon follower_;
};

// ---------------------------------------------------------------------------
// In-process hosted tiers (traced run).
// ---------------------------------------------------------------------------

/// Decorates a node's net::RequestHandler: one span per served ADD, GET,
/// kReplBatch and kCheckpoint, parented to the client span that caused
/// it (found through the request's own content).
class TracingHandler final : public net::RequestHandler {
 public:
  TracingHandler(CommunixServer& inner, Tracer& tracer,
                 HostedObservations& obs)
      : inner_(inner), tracer_(tracer), obs_(obs) {}

  net::Response Handle(const net::Request& request) override {
    const std::uint64_t t0 = NowNs();
    net::Response resp = inner_.Handle(request);
    const std::uint64_t t1 = NowNs();
    const double us = static_cast<double>(t1 - t0) / 1e3;
    switch (request.type) {
      case net::MsgType::kAddSignature: {
        const auto& p = request.payload;
        const std::uint64_t parent =
            p.size() > 16 ? tracer_.AddSpanFor(HashBytes(
                                std::span<const std::uint8_t>(p).subspan(16)))
                          : 0;
        tracer_.Record(
            Span{"server.add", tracer_.NextId(), parent, parent, t0, t1});
        std::lock_guard lock(obs_.mu);
        obs_.add_handle_us.Add(us);
        break;
      }
      case net::MsgType::kGetSignatures: {
        communix::BinaryReader r(request.payload);
        const std::uint64_t cursor = r.ReadU64();
        const std::uint64_t parent = tracer_.ClaimGet(cursor);
        // Cursor class as the serving node sees it: 0 is a fresh
        // install, within 64 of its tip a recent poller, else stale.
        const std::uint64_t size = inner_.db_size();
        const int cls = cursor == 0 ? 1 : (cursor + 64 >= size ? 0 : 2);
        std::uint32_t count = 0;
        if (resp.payload.size() >= 4) {
          communix::BinaryReader cr(resp.payload);
          count = cr.ReadU32();
        }
        tracer_.Record(
            Span{"server.get", tracer_.NextId(), parent, parent, t0, t1});
        std::lock_guard lock(obs_.mu);
        obs_.get_handle_us[cls].Add(us);
        if (cls == 2 && count > 0) {
          obs_.cold_ns_per_entry.Add(static_cast<double>(t1 - t0) / count);
        }
        break;
      }
      case net::MsgType::kReplBatch: {
        const auto batch = net::ParseReplBatchRequest(request);
        const std::uint64_t round =
            batch ? (kRoundSpanTag | batch->from_index) : 0;
        tracer_.Record(Span{"server.repl_batch", tracer_.NextId(), round,
                            round, t0, t1});
        std::lock_guard lock(obs_.mu);
        obs_.repl_batch_handle_us.Add(us);
        break;
      }
      case net::MsgType::kCheckpoint:
        tracer_.Record(
            Span{"server.checkpoint", tracer_.NextId(), 0, 0, t0, t1});
        break;
      default:
        break;
    }
    return resp;
  }

 private:
  CommunixServer& inner_;
  Tracer& tracer_;
  HostedObservations& obs_;
};

/// Decorates the shipper's transport: one "shipper.round" span from the
/// round's Send to its Receive, and the Send time of every entry shipped.
class TracingTransport final : public net::PipelinedClientTransport {
 public:
  TracingTransport(std::uint16_t port, Tracer& tracer, HostedObservations& obs)
      : inner_("127.0.0.1", port), tracer_(tracer), obs_(obs) {}

  Status Send(const net::Request& request) override {
    pending_start_ = NowNs();
    pending_id_ = tracer_.NextId();
    if (request.type == net::MsgType::kReplBatch) {
      if (const auto batch = net::ParseReplBatchRequest(request)) {
        pending_id_ = kRoundSpanTag | batch->from_index;
        std::lock_guard lock(obs_.mu);
        obs_.entries_shipped += batch->entries.size();
        for (const net::ReplEntry& e : batch->entries) {
          obs_.shipped_at.emplace(HashBytes(e.sig_bytes), pending_start_);
        }
      }
    }
    return inner_.Send(request);
  }

  Result<net::Response> Receive() override {
    auto result = inner_.Receive();
    if (pending_start_ != 0) {
      const std::uint64_t end = tracer_.Close("shipper.round", pending_id_, 0,
                                              pending_id_, pending_start_);
      std::lock_guard lock(obs_.mu);
      obs_.round_us.Add(static_cast<double>(end - pending_start_) / 1e3);
      ++obs_.rounds;
      obs_.round_ns_total += end - pending_start_;
      pending_start_ = 0;
    }
    return result;
  }

  Result<net::Response> Call(const net::Request& request) override {
    return inner_.Call(request);
  }

 private:
  net::ReconnectingTcpClient inner_;
  Tracer& tracer_;
  HostedObservations& obs_;
  std::uint64_t pending_start_ = 0;  // shipper thread only
  std::uint64_t pending_id_ = 0;
};

/// One node, wired as communix_server_main wires a daemon.
class HostedNode {
 public:
  HostedNode(ServerRole role, std::uint16_t port,
             std::optional<std::uint16_t> follower_port,
             const std::string& db_path, Tracer& tracer,
             HostedObservations& obs)
      : metrics_(std::make_shared<communix::obs::MetricsRegistry>()),
        db_path_(db_path),
        obs_(&obs) {
    CommunixServer::Options options;
    options.per_user_daily_limit = 10;
    options.role = role;
    options.metrics = metrics_;
    server_ = std::make_unique<CommunixServer>(
        communix::SystemClock::Instance(), options);
    runtime_ = std::make_unique<communix::dimmunix::DimmunixRuntime>(
        communix::SystemClock::Instance());
    runtime_probe_ = runtime_->ExportStats(*metrics_);
    auto& ctx = runtime_->AttachThread("startup-selfcheck");
    communix::dimmunix::Monitor m("selfcheck");
    if (runtime_->Acquire(ctx, m).ok()) runtime_->Release(ctx, m);
    runtime_->DetachThread(ctx);

    handler_ = std::make_unique<TracingHandler>(*server_, tracer, obs);
    net::TcpServer::Options tcp_options;
    tcp_options.port = port;
    tcp_options.metrics = metrics_;
    tcp_ = std::make_unique<net::TcpServer>(*handler_, tcp_options);
    if (follower_port) {
      transport_ = std::make_unique<TracingTransport>(*follower_port, tracer,
                                                      obs);
      shipper_.emplace(*server_);
      shipper_->AddFollower("127.0.0.1:" + std::to_string(*follower_port),
                            *transport_);
      shipper_probe_ = shipper_->ExportStats(*metrics_);
    }
  }

  ~HostedNode() { Stop(); }
  HostedNode(const HostedNode&) = delete;
  HostedNode& operator=(const HostedNode&) = delete;

  Status Start() {
    if (auto s = tcp_->Start(); !s.ok()) return s;
    if (shipper_) shipper_->Start();
    running_ = true;
    save_thread_ = std::thread([this] { SaveLoop(); });
    return Status::Ok();
  }

  void Stop() {
    if (running_.exchange(false)) {
      save_thread_.join();
    }
    if (shipper_) {
      shipper_probe_.Release();
      shipper_->Stop();
    }
    tcp_->Stop();
  }

  std::uint16_t port() const { return tcp_->port(); }
  CommunixServer& server() { return *server_; }

 private:
  /// The daemon's main loop: save every 0.5 s when the db grew.
  void SaveLoop() {
    std::uint64_t last_size = server_->db_size();
    while (running_.load()) {
      const std::uint64_t wake = NowNs() + 500'000'000;
      while (running_.load() && NowNs() < wake) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      const std::uint64_t size = server_->db_size();
      if (!running_.load() || size == last_size) continue;
      const std::uint64_t t0 = NowNs();
      if (server_->SaveToFile(db_path_).ok()) last_size = size;
      const double ms = static_cast<double>(NowNs() - t0) / 1e6;
      std::lock_guard lock(obs_->mu);
      obs_->save_ms.Add(ms);
    }
  }

  std::shared_ptr<communix::obs::MetricsRegistry> metrics_;
  std::string db_path_;
  HostedObservations* obs_;
  std::unique_ptr<CommunixServer> server_;
  std::unique_ptr<communix::dimmunix::DimmunixRuntime> runtime_;
  communix::obs::ProbeHandle runtime_probe_;
  std::unique_ptr<TracingHandler> handler_;
  std::unique_ptr<net::TcpServer> tcp_;
  std::unique_ptr<TracingTransport> transport_;
  std::optional<communix::cluster::LogShipper> shipper_;
  communix::obs::ProbeHandle shipper_probe_;
  std::atomic<bool> running_{false};
  std::thread save_thread_;
};

class HostedCluster final : public Cluster {
 public:
  HostedCluster(const Env& env, std::string dir)
      : tracer_(*env.tracer), dir_(std::move(dir)),
        follower_port_(ReservePort()) {}
  ~HostedCluster() override { Stop(); }

  Status StartPrimary() override {
    primary_ = std::make_unique<HostedNode>(ServerRole::kPrimary, 0,
                                            follower_port_,
                                            dir_ + "/primary.db", tracer_,
                                            obs_);
    if (auto s = primary_->Start(); !s.ok()) return s;
    running_ = true;
    monitor_ = std::thread([this] { MonitorLoop(); });
    return Status::Ok();
  }
  Status StartFollower() override {
    auto node = std::make_unique<HostedNode>(
        ServerRole::kFollower, follower_port_, std::nullopt,
        dir_ + "/follower.db", tracer_, obs_);
    if (auto s = node->Start(); !s.ok()) return s;
    follower_.store(node.release());
    return Status::Ok();
  }
  std::uint16_t primary_port() const override { return primary_->port(); }
  std::uint16_t follower_port() const override { return follower_port_; }
  double PeakRssMb() const override { return VmHwmMb("/proc/self/status"); }
  HostedObservations* observations() override { return &obs_; }
  void Stop() override {
    if (running_.exchange(false)) monitor_.join();
    if (primary_) primary_->Stop();
    if (HostedNode* f = follower_.exchange(nullptr)) {
      f->Stop();
      delete f;
    }
    primary_.reset();
  }

 private:
  /// Replication lag (sampled every millisecond) and the nodes' request
  /// trace rings (drained every 20 ms).
  void MonitorLoop() {
    std::uint64_t seen[2] = {0, 0};
    for (std::uint64_t tick = 0; running_.load(); ++tick) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      HostedNode* follower = follower_.load();
      if (follower != nullptr) {
        const std::uint64_t p = primary_->server().db_size();
        const std::uint64_t f = follower->server().db_size();
        std::lock_guard lock(obs_.mu);
        if (p > f) obs_.max_lag_entries = std::max(obs_.max_lag_entries, p - f);
      }
      if (tick % 20 != 0) continue;
      HostedNode* nodes[2] = {primary_.get(), follower};
      for (int n = 0; n < 2; ++n) {
        if (nodes[n] == nullptr) continue;
        const auto& ring = nodes[n]->server().trace_ring();
        const std::uint64_t pushed = ring->pushed();
        const auto recs = ring->Recent(
            static_cast<std::size_t>(std::min<std::uint64_t>(pushed - seen[n], 256)));
        seen[n] = pushed;
        std::lock_guard lock(obs_.mu);
        for (const auto& rec : recs) {
          const std::size_t verb = rec.verb & 15;
          auto stage_us = [&](communix::obs::Stage s) {
            return static_cast<double>(rec.stage_ns[static_cast<std::size_t>(s)]) / 1e3;
          };
          obs_.queue_wait_us[verb].Add(stage_us(communix::obs::Stage::kQueueWait));
          obs_.parse_us[verb].Add(stage_us(communix::obs::Stage::kParse));
          obs_.flush_us[verb].Add(stage_us(communix::obs::Stage::kFlush));
        }
      }
    }
  }

  Tracer& tracer_;
  std::string dir_;
  std::uint16_t follower_port_;
  HostedObservations obs_;
  std::unique_ptr<HostedNode> primary_;
  std::atomic<HostedNode*> follower_{nullptr};
  std::atomic<bool> running_{false};
  std::thread monitor_;
};

}  // namespace

std::unique_ptr<Cluster> MakeCluster(const Env& env, int index) {
  const std::string dir = env.work_dir + "/cluster" + std::to_string(index);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  if (env.tracer != nullptr) return std::make_unique<HostedCluster>(env, dir);
  return std::make_unique<DaemonCluster>(env, dir);
}

}  // namespace perfbench
