// Shared pieces of the perfbench driver: sample statistics, the run
// result every workload fills in, the deployment under test (forked
// daemons or in-process hosted tiers) and the benchmark's own wire
// client.
//
// Every number the benchmark reports is measured from outside the
// program: by timing the benchmark's own calls into public APIs, or by
// scraping the daemons' kStats counters before and after a window. No
// file under src/ knows it is being measured.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dimmunix/signature.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace perfbench {

using communix::ErrorCode;
using communix::Result;
using communix::Status;

/// Steady-clock nanoseconds (the only clock the benchmark times with).
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Sleeps until the steady clock reads `deadline_ns`.
void SleepUntil(std::uint64_t deadline_ns);

/// A bag of measured values; quantiles use the nearest-rank rule.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); sorted_ = false; }
  void Append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Max() const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Samples grouped by the second of the measured window they belong to.
/// When the hypervisor withholds CPU for a few seconds of a run, one
/// quantile over the whole window moves with the share of the run that
/// was hit; the median over the window's seconds of each second's
/// quantile moves only when most seconds were.
class SecondSamples {
 public:
  void Add(std::uint64_t second, double v) { by_second_[second].Add(v); }
  void Append(const SecondSamples& other);
  /// Median over the seconds holding at least `min_count` samples of
  /// each second's q-quantile.
  double MedianOfSeconds(double q, std::size_t min_count = 100) const;

 private:
  std::unordered_map<std::uint64_t, Samples> by_second_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `failed` counts operations that went
/// wrong (transport errors, unexpected statuses, bad replies, entries
/// never visible, kDeadlock); `problems` names every failed check.
///
/// `e2e` and `layer` hold the metrics every workload reports under the
/// same names (kEndToEnd, kPerLayer); `detail` holds the workload's own
/// breakdown, written to the run's record only.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<Metric> detail;
  /// Free-form facts written to the run's artifact (not metrics).
  std::vector<std::pair<std::string, double>> facts;

  bool correct() const { return failed == 0 && problems.empty(); }
  void Check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void E2e(std::string name, double v, std::string unit) {
    e2e.push_back({std::move(name), v, std::move(unit)});
  }
  void Layer(std::string name, double v, std::string unit) {
    layer.push_back({std::move(name), v, std::move(unit)});
  }
  void Detail(std::string name, double v, std::string unit) {
    detail.push_back({std::move(name), v, std::move(unit)});
  }
  const Metric* FindE2e(const std::string& name) const;
};

/// The metrics every workload prints, in this order, with their units:
/// the end-to-end set untraced, the per-layer set traced. BENCHMARK.json
/// lists the same names; each workload's own meaning of them is in
/// perfbench/README.md.
inline constexpr std::array<std::pair<const char*, const char*>, 6> kEndToEnd{{
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_p50_us", "us"},
    {"op_tail_us", "us"},
    {"deliver_ms", "ms"},
    {"ops_per_s", "1/s"},
}};
inline constexpr std::array<std::pair<const char*, const char*>, 8> kPerLayer{{
    {"net.queue_wait_us", "us"},
    {"net.parse_us", "us"},
    {"net.flush_us", "us"},
    {"server.handle_us", "us"},
    {"server.repl_batch_handle_us", "us"},
    {"shipper.round_us", "us"},
    {"shipper.entries_per_round", "count"},
    {"store.save_ms", "ms"},
}};

// ---------------------------------------------------------------------------
// Tracing (traced run only): spans kept in memory, written at run end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";   // "<layer>.<operation>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t req = 0;     // request id shared by one request's spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Span ids of client requests are derived from the request itself, so
/// the server-side decorator can name its parent without any wire change.
inline constexpr std::uint64_t kAddSpanTag = 1ull << 56;
inline constexpr std::uint64_t kRoundSpanTag = 2ull << 56;

class Tracer {
 public:
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  /// Records [start, now) and returns its end time.
  std::uint64_t Close(const char* name, std::uint64_t id, std::uint64_t parent,
                      std::uint64_t req, std::uint64_t start_ns);

  /// ADD correlation: content hash of a signature -> client span id.
  void SetAddSpans(std::unordered_map<std::uint64_t, std::uint64_t> by_hash);
  std::uint64_t AddSpanFor(std::uint64_t sig_hash) const;
  /// GET correlation: the client announces (cursor -> span) before
  /// sending; the serving decorator claims it (FIFO per cursor).
  void AnnounceGet(std::uint64_t cursor, std::uint64_t span_id);
  std::uint64_t ClaimGet(std::uint64_t cursor);

  std::vector<Span> Spans() const;

 private:
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::unordered_map<std::uint64_t, std::uint64_t> add_spans_;  // read-only
  std::mutex get_mu_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> get_spans_;
};

/// Per-layer self time over a span set: each span's duration minus the
/// part of it its children cover; summed per layer (name prefix).
struct LayerTime {
  std::uint64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<std::pair<std::string, LayerTime>> SelfTimeByLayer(
    const std::vector<Span>& spans);
/// Writes spans as JSON lines; false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// The deployment under test.
// ---------------------------------------------------------------------------

/// Observations only the in-process (traced) deployment can make: the
/// decorators around the handler, the shipper transport and the save
/// loop report here.
struct HostedObservations {
  std::mutex mu;
  Samples add_handle_us, repl_batch_handle_us, save_ms;
  Samples get_handle_us[3];        // tip, full, stale
  Samples cold_ns_per_entry;       // stale-class GETs
  Samples round_us;                // first Send -> last Receive
  std::uint64_t rounds = 0, round_ns_total = 0, entries_shipped = 0;
  /// content hash -> steady ns of the first round Send that carried it.
  std::unordered_map<std::uint64_t, std::uint64_t> shipped_at;
  std::uint64_t max_lag_entries = 0;
  /// Stage samples (us) from the primary/follower trace rings, by verb.
  Samples queue_wait_us[16], parse_us[16], flush_us[16];
};

/// Share of the shipper's rounds in [w0, w1) that shipped nothing. The
/// transport only sees rounds that send a frame; the loop runs one round
/// per (round time + 20 ms ship period), so the others were empty.
double EmptyRoundRatio(const HostedObservations& obs,
                       const std::vector<Span>& spans, std::uint64_t w0,
                       std::uint64_t w1);

/// The per-layer metrics every workload reports from a traced run
/// (kPerLayer): trace-ring stages and handler time of the workload's
/// client requests (`verb`: ADDs, else GETs of every cursor class),
/// follower ingest, shipper rounds and the save loop. Needs obs.mu held.
void ReportSharedLayers(HostedObservations& obs, communix::net::MsgType verb,
                        RunResult* result);

class Cluster {
 public:
  virtual ~Cluster() = default;
  /// Starts the primary, whose in-process shipper targets the
  /// follower's (reserved) port; the follower may start later.
  virtual Status StartPrimary() = 0;
  virtual Status StartFollower() = 0;
  virtual std::uint16_t primary_port() const = 0;
  virtual std::uint16_t follower_port() const = 0;
  /// Sum of VmHWM over the daemons (MB); the process's own when hosted.
  virtual double PeakRssMb() const = 0;
  /// Traced deployments only; null otherwise.
  virtual HostedObservations* observations() { return nullptr; }
  virtual void Stop() = 0;
};

struct Env {
  std::string server_binary;  // communix_server built next to perfbench
  std::string work_dir;       // per-run scratch (db files), inside out/
  Tracer* tracer = nullptr;   // non-null = traced (in-process) run
};

std::unique_ptr<Cluster> MakeCluster(const Env& env, int index);

// ---------------------------------------------------------------------------
// Wire client.
// ---------------------------------------------------------------------------

/// Frame = u32 LE length + Request::Serialize().
std::vector<std::uint8_t> FrameOf(const communix::net::Request& request);

/// Non-blocking pipelined client connection: the open-loop generators
/// send on schedule while replies stream back on the same socket.
class PipeConn {
 public:
  PipeConn() = default;
  ~PipeConn();
  PipeConn(const PipeConn&) = delete;
  PipeConn& operator=(const PipeConn&) = delete;

  Status Connect(std::uint16_t port);
  /// Queues a frame and writes what the socket takes now; returns the
  /// nanoseconds spent in the write syscall(s).
  Result<std::uint64_t> Send(std::span<const std::uint8_t> frame);
  using OnReply =
      std::function<void(std::span<const std::uint8_t> body, std::uint64_t)>;
  /// Waits until `deadline_ns` (or the first reply, if `return_on_reply`)
  /// for socket activity; every completed reply body goes to `on_reply`
  /// with the steady time its last byte was read.
  Status Pump(std::uint64_t deadline_ns, const OnReply& on_reply,
              bool return_on_reply = false);
  bool output_pending() const { return out_off_ < out_.size(); }

 private:
  Status FlushOut();
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_off_ = 0;
};

/// Blocking request/reply over a fresh or given TCP connection (setup,
/// scrapes and checks — never inside a timed window).
Result<communix::net::Response> CallOnce(std::uint16_t port,
                                         const communix::net::Request& req);
/// kStats scrape (metrics only).
Result<communix::obs::MetricsSnapshot> Scrape(std::uint16_t port);
/// Counter/gauge delta b - a (0 when absent).
double Delta(const communix::obs::MetricsSnapshot& a,
             const communix::obs::MetricsSnapshot& b, const std::string& name);
/// Histogram delta (count, sum_ns).
std::pair<double, double> HistDelta(const communix::obs::MetricsSnapshot& a,
                                    const communix::obs::MetricsSnapshot& b,
                                    const std::string& name);
/// Issues tokens for `users` over kIssueId, pipelined in windows.
Result<std::vector<std::array<std::uint8_t, 16>>> IssueTokens(
    std::uint16_t port, const std::vector<std::uint64_t>& users);
/// Sends kAddBatch frames (one per sender) pipelined; returns the
/// per-signature statuses in order.
Result<std::vector<std::vector<ErrorCode>>> SendBatches(
    std::uint16_t port,
    const std::vector<communix::net::Request>& batches);
/// Polls the node's db size (kStats gauge) until it reaches `size`.
Status WaitForSize(std::uint16_t port, std::uint64_t size,
                   double timeout_s = 30);
/// GET(from) payload as one buffer (blocking).
Result<std::vector<std::uint8_t>> GetPayload(std::uint16_t port,
                                             std::uint64_t from);

/// Parses a GET reply payload (u32 count + length-prefixed entries) the
/// way CommunixClient::PollOnce does, through BinaryReader. nullopt if the
/// framing is inconsistent.
struct GetEntries {
  std::uint32_t count = 0;
  std::vector<std::vector<std::uint8_t>> entries;
};
std::optional<GetEntries> ParseGetPayload(std::span<const std::uint8_t> p);

/// FNV-1a over bytes (the signature content id scheme).
std::uint64_t HashBytes(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadArgs {
  Env env;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured window
  int setups = 5;       // setup repetitions (setup_s is their median)
};

RunResult RunPublish(const WorkloadArgs& args);
RunResult RunPoll(const WorkloadArgs& args);
RunResult RunImmunity(const WorkloadArgs& args);

/// A two-thread signature of community deadlock bug `bug`: four depth-8
/// stacks whose top frames carry the bug id, so distinct bugs share no
/// top frame (never adjacent). The adjacent variant changes one top
/// frame only, which the server refuses from a user who already sent
/// the original (§III-C2).
communix::dimmunix::Signature BugSignature(std::uint64_t bug,
                                           bool adjacent_variant = false);

/// Runs `setup` on `count` fresh clusters (indexes from `base`), stopping
/// all but the last, which it returns. `*median_s` receives the median
/// wall time of the setups (each measured from cluster creation to
/// `setup` returning). A failed setup is retried twice on a fresh cluster.
Result<std::unique_ptr<Cluster>> RepeatSetup(
    const Env& env, int base, int count,
    const std::function<Status(Cluster&)>& setup, double* median_s);

/// Builds a kAddSignature request (token ++ serialized signature).
communix::net::Request AddRequest(const std::array<std::uint8_t, 16>& token,
                                  std::span<const std::uint8_t> sig_bytes);

}  // namespace perfbench
