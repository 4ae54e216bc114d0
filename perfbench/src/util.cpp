// Sample statistics, span bookkeeping and the benchmark's wire client.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.hpp"
#include "net/tcp.hpp"
#include "dimmunix/frame.hpp"
#include "util/fnv.hpp"
#include "util/serde.hpp"

namespace perfbench {

using communix::BinaryReader;
using communix::BinaryWriter;
namespace net = communix::net;

void SleepUntil(std::uint64_t deadline_ns) {
  const std::uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

// ---- Samples ---------------------------------------------------------------

void SecondSamples::Append(const SecondSamples& other) {
  for (const auto& [second, samples] : other.by_second_) {
    by_second_[second].Append(samples);
  }
}

double SecondSamples::MedianOfSeconds(double q, std::size_t min_count) const {
  Samples per_second;
  for (const auto& [second, samples] : by_second_) {
    if (samples.size() >= min_count) per_second.Add(samples.Quantile(q));
  }
  return per_second.Median();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values_[std::min(i, values_.size() - 1)];
}

double Samples::Max() const {
  if (values_.empty()) return 0;
  Sort();
  return values_.back();
}

const Metric* RunResult::FindE2e(const std::string& name) const {
  for (const Metric& m : e2e) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ---- Tracer ----------------------------------------------------------------

void Tracer::Record(const Span& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

std::uint64_t Tracer::Close(const char* name, std::uint64_t id,
                            std::uint64_t parent, std::uint64_t req,
                            std::uint64_t start_ns) {
  const std::uint64_t end = NowNs();
  Record(Span{name, id, parent, req, start_ns, end});
  return end;
}

void Tracer::SetAddSpans(
    std::unordered_map<std::uint64_t, std::uint64_t> by_hash) {
  add_spans_ = std::move(by_hash);
}

std::uint64_t Tracer::AddSpanFor(std::uint64_t sig_hash) const {
  const auto it = add_spans_.find(sig_hash);
  return it == add_spans_.end() ? 0 : it->second;
}

void Tracer::AnnounceGet(std::uint64_t cursor, std::uint64_t span_id) {
  std::lock_guard lock(get_mu_);
  get_spans_[cursor].push_back(span_id);
}

std::uint64_t Tracer::ClaimGet(std::uint64_t cursor) {
  std::lock_guard lock(get_mu_);
  const auto it = get_spans_.find(cursor);
  if (it == get_spans_.end() || it->second.empty()) return 0;
  const std::uint64_t id = it->second.front();
  it->second.erase(it->second.begin());
  return id;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<std::pair<std::string, LayerTime>> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> layers;
  for (const Span& s : spans) {
    const std::string name(s.name);
    LayerTime& lt = layers[name.substr(0, name.find('.'))];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    // Union of the children's intervals, clipped to this span.
    double covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          covered += static_cast<double>(cur_hi - cur_lo);
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += static_cast<double>(cur_hi - cur_lo);
    }
    ++lt.spans;
    lt.total_ms += dur / 1e6;
    lt.self_ms += (dur - covered) / 1e6;
  }
  return {layers.begin(), layers.end()};
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

double EmptyRoundRatio(const HostedObservations& obs,
                       const std::vector<Span>& spans, std::uint64_t w0,
                       std::uint64_t w1) {
  std::uint64_t busy = 0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "shipper.round" && s.start_ns >= w0 &&
        s.start_ns < w1) {
      ++busy;
    }
  }
  const double mean_round_s =
      obs.rounds > 0 ? static_cast<double>(obs.round_ns_total) /
                           static_cast<double>(obs.rounds) / 1e9
                     : 0;
  const double rounds =
      static_cast<double>(w1 - w0) / 1e9 / (0.020 + mean_round_s);
  return rounds > 0 ? std::max(0.0, 1.0 - static_cast<double>(busy) / rounds)
                    : 0;
}

void ReportSharedLayers(HostedObservations& obs, net::MsgType verb,
                        RunResult* result) {
  const auto v = static_cast<std::size_t>(verb) & 15;
  result->Layer("net.queue_wait_us", obs.queue_wait_us[v].Median(), "us");
  result->Layer("net.parse_us", obs.parse_us[v].Median(), "us");
  result->Layer("net.flush_us", obs.flush_us[v].Median(), "us");
  Samples handle_us;
  if (verb == net::MsgType::kAddSignature) {
    handle_us = obs.add_handle_us;
  } else {
    for (const Samples& cls : obs.get_handle_us) handle_us.Append(cls);
  }
  result->Layer("server.handle_us", handle_us.Median(), "us");
  result->Layer("server.repl_batch_handle_us", obs.repl_batch_handle_us.Median(),
                "us");
  result->Layer("shipper.round_us", obs.round_us.Median(), "us");
  result->Layer("shipper.entries_per_round",
                obs.rounds > 0 ? static_cast<double>(obs.entries_shipped) /
                                     static_cast<double>(obs.rounds)
                               : 0,
                "count");
  result->Layer("store.save_ms", obs.save_ms.Median(), "ms");
}

// ---- wire client -----------------------------------------------------------

std::vector<std::uint8_t> FrameOf(const net::Request& request) {
  const std::vector<std::uint8_t> body = request.Serialize();
  std::vector<std::uint8_t> frame(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    frame[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (i * 8));
  }
  std::copy(body.begin(), body.end(), frame.begin() + 4);
  return frame;
}

PipeConn::~PipeConn() {
  if (fd_ >= 0) ::close(fd_);
}

Status PipeConn::Connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Error(ErrorCode::kUnavailable, "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Error(ErrorCode::kUnavailable, "connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  return Status::Ok();
}

Status PipeConn::FlushOut() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return Status::Error(ErrorCode::kUnavailable, "send failed");
  }
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  return Status::Ok();
}

Result<std::uint64_t> PipeConn::Send(std::span<const std::uint8_t> frame) {
  out_.insert(out_.end(), frame.begin(), frame.end());
  const std::uint64_t t0 = NowNs();
  if (auto s = FlushOut(); !s.ok()) return s;
  return NowNs() - t0;
}

Status PipeConn::Pump(std::uint64_t deadline_ns, const OnReply& on_reply,
                      bool return_on_reply) {
  for (;;) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (output_pending() ? POLLOUT : 0)),
               0};
    const std::uint64_t now = NowNs();
    const std::uint64_t wait = deadline_ns > now ? deadline_ns - now : 0;
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Error(ErrorCode::kUnavailable, "poll failed");
    }
    if (ready == 0) return Status::Ok();  // deadline
    if ((pfd.revents & POLLOUT) != 0) {
      if (auto s = FlushOut(); !s.ok()) return s;
    }
    bool got_reply = false;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      for (;;) {
        std::uint8_t buf[64 * 1024];
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
          in_.insert(in_.end(), buf, buf + n);
          continue;
        }
        if (n == 0) return Status::Error(ErrorCode::kUnavailable, "closed");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return Status::Error(ErrorCode::kUnavailable, "recv failed");
      }
      const std::uint64_t recv_ns = NowNs();
      while (in_.size() - in_off_ >= 4) {
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i) {
          len |= static_cast<std::uint32_t>(in_[in_off_ + static_cast<std::size_t>(i)])
                 << (i * 8);
        }
        if (len > net::kMaxFrameSize) {
          return Status::Error(ErrorCode::kDataLoss, "oversized reply");
        }
        if (in_.size() - in_off_ < 4 + static_cast<std::size_t>(len)) break;
        on_reply(std::span<const std::uint8_t>(in_.data() + in_off_ + 4, len),
                 recv_ns);
        in_off_ += 4 + len;
        got_reply = true;
      }
      if (in_off_ == in_.size()) {
        in_.clear();
        in_off_ = 0;
      } else if (in_off_ > (1u << 20)) {
        in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_off_));
        in_off_ = 0;
      }
    }
    if (got_reply && return_on_reply) return Status::Ok();
    if (NowNs() >= deadline_ns) return Status::Ok();
  }
}

Result<net::Response> CallOnce(std::uint16_t port, const net::Request& req) {
  net::TcpClient client;
  if (auto s = client.Connect("127.0.0.1", port); !s.ok()) return s;
  return client.Call(req);
}

Result<communix::obs::MetricsSnapshot> Scrape(std::uint16_t port) {
  auto resp = CallOnce(port, net::BuildStatsRequest(net::StatsRequest{}));
  if (!resp.ok()) return resp.status();
  auto snap = net::ParseStatsReply(resp.value());
  if (!snap) return Status::Error(ErrorCode::kDataLoss, "bad kStats reply");
  return *snap;
}

double Delta(const communix::obs::MetricsSnapshot& a,
             const communix::obs::MetricsSnapshot& b, const std::string& name) {
  return static_cast<double>(b.Value(name)) -
         static_cast<double>(a.Value(name));
}

std::pair<double, double> HistDelta(const communix::obs::MetricsSnapshot& a,
                                    const communix::obs::MetricsSnapshot& b,
                                    const std::string& name) {
  const auto* ha = a.FindHistogram(name);
  const auto* hb = b.FindHistogram(name);
  if (hb == nullptr) return {0, 0};
  const double c0 = ha ? static_cast<double>(ha->count) : 0;
  const double s0 = ha ? static_cast<double>(ha->sum_ns) : 0;
  return {static_cast<double>(hb->count) - c0,
          static_cast<double>(hb->sum_ns) - s0};
}

Result<std::vector<std::array<std::uint8_t, 16>>> IssueTokens(
    std::uint16_t port, const std::vector<std::uint64_t>& users) {
  net::TcpClient client;
  if (auto s = client.Connect("127.0.0.1", port); !s.ok()) return s;
  std::vector<std::array<std::uint8_t, 16>> out;
  out.reserve(users.size());
  constexpr std::size_t kWindow = 256;
  for (std::size_t lo = 0; lo < users.size(); lo += kWindow) {
    const std::size_t hi = std::min(users.size(), lo + kWindow);
    for (std::size_t i = lo; i < hi; ++i) {
      net::Request req;
      req.type = net::MsgType::kIssueId;
      BinaryWriter w;
      w.WriteU64(users[i]);
      req.payload = w.take();
      if (auto s = client.Send(req); !s.ok()) return s;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      auto resp = client.Receive();
      if (!resp.ok()) return resp.status();
      if (!resp.value().ok() || resp.value().payload.size() != 16) {
        return Status::Error(ErrorCode::kInternal, "ISSUE_ID refused");
      }
      std::array<std::uint8_t, 16> token{};
      std::copy(resp.value().payload.begin(), resp.value().payload.end(),
                token.begin());
      out.push_back(token);
    }
  }
  return out;
}

Result<std::vector<std::vector<ErrorCode>>> SendBatches(
    std::uint16_t port, const std::vector<net::Request>& batches) {
  net::TcpClient client;
  if (auto s = client.Connect("127.0.0.1", port); !s.ok()) return s;
  std::vector<std::vector<ErrorCode>> out;
  out.reserve(batches.size());
  constexpr std::size_t kWindow = 64;
  for (std::size_t lo = 0; lo < batches.size(); lo += kWindow) {
    const std::size_t hi = std::min(batches.size(), lo + kWindow);
    for (std::size_t i = lo; i < hi; ++i) {
      if (auto s = client.Send(batches[i]); !s.ok()) return s;
    }
    for (std::size_t i = lo; i < hi; ++i) {
      auto resp = client.Receive();
      if (!resp.ok()) return resp.status();
      auto codes = net::ParseAddBatchResponse(resp.value());
      if (!codes) return Status::Error(ErrorCode::kDataLoss, "bad batch reply");
      out.push_back(std::move(*codes));
    }
  }
  return out;
}

Status WaitForSize(std::uint16_t port, std::uint64_t size, double timeout_s) {
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
  for (;;) {
    auto snap = Scrape(port);
    if (snap.ok() && snap.value().Value("store.db_size") >= size) {
      return Status::Ok();
    }
    if (NowNs() > deadline) {
      return Status::Error(ErrorCode::kUnavailable, "node never reached size");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Result<std::vector<std::uint8_t>> GetPayload(std::uint16_t port,
                                             std::uint64_t from) {
  net::Request req;
  req.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(from);
  req.payload = w.take();
  auto resp = CallOnce(port, req);
  if (!resp.ok()) return resp.status();
  if (!resp.value().ok()) {
    return Status::Error(resp.value().code, resp.value().error);
  }
  return std::move(resp.value().payload);
}

std::optional<GetEntries> ParseGetPayload(std::span<const std::uint8_t> p) {
  BinaryReader r(p);
  GetEntries out;
  out.count = r.ReadU32();
  if (!r.ok() || out.count > r.remaining() / 4) return std::nullopt;
  out.entries.reserve(out.count);
  for (std::uint32_t i = 0; i < out.count; ++i) {
    out.entries.push_back(r.ReadBytes());
    if (!r.ok()) return std::nullopt;
  }
  if (!r.AtEnd()) return std::nullopt;
  return out;
}

std::uint64_t HashBytes(std::span<const std::uint8_t> bytes) {
  return communix::Fnv1a(bytes);
}

// ---- workload helpers --------------------------------------------------------

communix::dimmunix::Signature BugSignature(std::uint64_t bug,
                                           bool adjacent_variant) {
  using communix::dimmunix::CallStack;
  using communix::dimmunix::Frame;
  // A realistic depth-8 Java-style stack: a shared call chain under a
  // per-bug lock statement (~1.2 KB serialized per signature).
  const std::string pkg =
      "org.community.app" + std::to_string(bug % 97) + ".service.";
  const auto line = static_cast<std::uint32_t>(1000 + bug);
  auto stack = [&](const std::string& cls, const char* top) {
    std::vector<Frame> frames;
    frames.reserve(8);
    for (std::uint32_t d = 0; d < 7; ++d) {
      frames.emplace_back(pkg + cls, "dispatchRequestLevel" + std::to_string(d),
                          10 + d);
    }
    frames.emplace_back(pkg + cls, top, line);
    return CallStack(std::move(frames));
  };
  std::vector<communix::dimmunix::SignatureEntry> entries;
  entries.push_back({stack("SessionManager", "lockOuter"),
                     stack("SessionManager", "lockInner")});
  entries.push_back({stack("ConnectionPool", "lockOuter"),
                     stack("ConnectionPool", adjacent_variant
                                                 ? "lockInnerRetry"
                                                 : "lockInner")});
  return communix::dimmunix::Signature(std::move(entries));
}

Result<std::unique_ptr<Cluster>> RepeatSetup(
    const Env& env, int base, int count,
    const std::function<Status(Cluster&)>& setup, double* median_s) {
  Samples seconds;
  std::unique_ptr<Cluster> last;
  int index = base;
  for (int i = 0; i < count; ++i) {
    if (last) last->Stop();  // outside the timed part
    last.reset();
    // A setup may lose its reserved follower port to another process;
    // such an attempt is retried on a fresh cluster, twice at most.
    Status failed = Status::Ok();
    for (int attempt = 0; attempt < 3 && !last; ++attempt) {
      const std::uint64_t t0 = NowNs();
      auto cluster = MakeCluster(env, index++);
      failed = setup(*cluster);
      if (!failed.ok()) continue;
      seconds.Add(static_cast<double>(NowNs() - t0) / 1e9);
      last = std::move(cluster);
    }
    if (!last) return failed;
  }
  *median_s = seconds.Median();
  return last;
}

net::Request AddRequest(const std::array<std::uint8_t, 16>& token,
                        std::span<const std::uint8_t> sig_bytes) {
  net::Request req;
  req.type = net::MsgType::kAddSignature;
  req.payload.reserve(16 + sig_bytes.size());
  req.payload.insert(req.payload.end(), token.begin(), token.end());
  req.payload.insert(req.payload.end(), sig_bytes.begin(), sig_bytes.end());
  return req;
}

}  // namespace perfbench
