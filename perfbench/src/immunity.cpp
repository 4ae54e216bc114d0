// Workload `immunity` (closed loop): the collaborative-immunity path.
//
// Setup preloads the primary with ~2,000 signatures for one synthetic
// application — half valid (sim::MakeCriticalPathSignature over pairs of
// its nested sites, outer depth 5-8), half foreign fakes — plus the
// signature of the app's ABBA bug, uploaded over the wire as a user who
// hit it would. A client downloads them from the follower
// (CommunixClient::PollOnce) into a LocalRepository, and the agent runs
// its nesting analysis. The timed part:
//   1. CommunixAgent::ProcessNewSignatures over the downloaded batch
//      (16 times on fresh runtimes, rotated over the CPUs; the fastest
//      is deliver_ms, the agent's start-up);
//   2. four app threads loop for the window. Every iteration takes a
//      per-thread private monitor at a site no signature covers; 1 in 8
//      also takes a shared monitor at a site a downloaded signature
//      covers; 1 in 64 runs its half of the ABBA pair, which the
//      downloaded signature must keep from deadlocking. Iterations per
//      second are ops_per_s; the iteration time is op_p50_us/op_tail_us.
// The server tier idles after setup; dimmunix and the agent do the work.
#include <sched.h>

#include <thread>

#include "bench.hpp"
#include "bytecode/synthetic.hpp"
#include "communix/agent.hpp"
#include "communix/client.hpp"
#include "communix/ids.hpp"
#include "communix/repository.hpp"
#include "net/tcp.hpp"
#include "sim/attacker.hpp"
#include "sim/stacks.hpp"
#include "sim/workload.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace net = communix::net;
using communix::Rng;
using communix::dimmunix::DimmunixRuntime;
using communix::dimmunix::Frame;
using communix::dimmunix::Monitor;
using communix::dimmunix::ThreadContext;

constexpr std::size_t kValidPairs = 250;   // x 4 depths = 1,000 valid
constexpr std::size_t kFakeUsers = 100;    // x 10 = 1,000 fakes
constexpr std::size_t kFakesPerUser = 10;
constexpr int kAppThreads = 4;
constexpr int kAgentStarts = 16;
constexpr std::uint32_t kWorkInside = 2;   // sim::BusyWork units
constexpr std::uint32_t kWorkOutside = 4;

/// The application under immunity: fixed across seeds, so the seed only
/// draws the signature set, the fakes and the thread schedules.
communix::bytecode::SyntheticSpec AppSpec() {
  communix::bytecode::SyntheticSpec spec;
  spec.name = "perfbench-app";
  spec.target_loc = 20'000;
  spec.sync_blocks = 80;
  spec.analyzable_sync_blocks = 60;
  spec.nested_sync_blocks = 23;  // C(23,2) = 253 site pairs
  spec.sync_helpers = 4;
  spec.classes = 20;
  spec.driver_chain_length = 10;
  spec.seed = 7;
  return spec;
}

struct Plan {
  std::vector<std::uint64_t> users;
  std::vector<std::vector<std::vector<std::uint8_t>>> batches;  // per user
  std::vector<std::uint8_t> abba_sig;  // uploaded by users.back()
  std::size_t valid = 0;               // incl. the ABBA signature
  std::size_t fakes = 0;
  std::int32_t abba_x = -1, abba_y = -1;
  std::vector<std::int32_t> covered_sites;  // sites the app threads sign
};

Plan MakePlan(const communix::bytecode::SyntheticApp& app, std::uint64_t seed) {
  Plan plan;
  Rng rng(seed * 0xA24BAED4963EE407ull + 3);
  const auto& nested = app.nested_sites;
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  for (std::size_t a = 0; a < nested.size(); ++a) {
    for (std::size_t b = a + 1; b < nested.size(); ++b) {
      pairs.emplace_back(nested[a], nested[b]);
    }
  }
  // Fixed roles, so every seed runs the same application behaviour: the
  // ABBA bug is (n4, n5); the app threads sign sites n0..n3, covered by
  // the valid pairs (n0, n1) and (n2, n3). The valid set is the first
  // kValidPairs of the other pairs; the seed draws the fakes and the
  // thread schedules.
  const std::pair<std::int32_t, std::int32_t> abba{nested[4], nested[5]};
  plan.abba_x = abba.first;
  plan.abba_y = abba.second;
  plan.covered_sites = {nested[0], nested[1], nested[2], nested[3]};
  std::erase(pairs, abba);
  pairs.resize(std::min(pairs.size(), kValidPairs));
  std::uint64_t member = 1;
  for (const auto& [a, b] : pairs) {
    plan.users.push_back(communix::MakeUserId(3, member++));
    std::vector<std::vector<std::uint8_t>> sigs;
    for (std::size_t depth = 5; depth <= 8; ++depth) {
      sigs.push_back(
          communix::sim::MakeCriticalPathSignature(app, a, b, depth).ToBytes());
    }
    plan.valid += sigs.size();
    plan.batches.push_back(std::move(sigs));
  }
  for (std::size_t u = 0; u < kFakeUsers; ++u) {
    plan.users.push_back(communix::MakeUserId(3, member++));
    std::vector<std::vector<std::uint8_t>> sigs;
    for (std::size_t k = 0; k < kFakesPerUser; ++k) {
      sigs.push_back(communix::sim::MakeRandomFakeSignature(rng, 6, 2).ToBytes());
    }
    plan.fakes += sigs.size();
    plan.batches.push_back(std::move(sigs));
  }
  plan.users.push_back(communix::MakeUserId(3, member++));
  plan.abba_sig =
      communix::sim::MakeCriticalPathSignature(app, plan.abba_x, plan.abba_y, 6)
          .ToBytes();
  ++plan.valid;
  return plan;
}

/// Pushes a frame sequence for one scope (pops on destruction).
class Frames {
 public:
  Frames(ThreadContext& ctx, const std::vector<Frame>& frames)
      : ctx_(ctx), n_(frames.size()) {
    for (const Frame& f : frames) ctx_.PushFrame(f);
  }
  ~Frames() {
    for (std::size_t i = 0; i < n_; ++i) ctx_.PopFrame();
  }
  Frames(const Frames&) = delete;
  Frames& operator=(const Frames&) = delete;

 private:
  ThreadContext& ctx_;
  std::size_t n_;
};

struct AppOut {
  /// Written by its app thread only; read once a second by the runner.
  std::atomic<std::uint64_t> iterations{0};
  std::uint64_t deadlocks = 0;
  Samples iteration_us;  // 1 iteration in 16, from its start to its end
  Samples clean_ns, signed_ns, release_ns;
};

struct AppRig {
  std::vector<std::vector<Frame>> private_frames;  // per thread
  std::vector<std::vector<Frame>> covered_frames;  // per covered site
  std::vector<std::unique_ptr<Monitor>> covered_monitors;
  std::vector<Frame> x_frames, y_frames;           // ABBA outer paths
  Frame x_helper, y_helper;                        // ABBA inner frames
  Monitor a{"abba-A"}, b{"abba-B"};
};

void AppThread(DimmunixRuntime& rt, AppRig& rig, int t, std::uint64_t seed,
               const std::atomic<bool>& stop, Tracer* tracer, AppOut* out) {
  ThreadContext& ctx = rt.AttachThread("app" + std::to_string(t));
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(t) + 101);
  Monitor priv("private" + std::to_string(t));
  const bool timed_run = tracer != nullptr;
  // Times one acquisition when this iteration is sampled.
  auto acquire = [&](Monitor& m, bool sample, Samples* into,
                     std::uint64_t parent) {
    const std::uint64_t t0 = sample ? NowNs() : 0;
    const auto s = rt.Acquire(ctx, m);
    if (sample) {
      const std::uint64_t t1 = NowNs();
      into->Add(static_cast<double>(t1 - t0));
      if (parent != 0) {
        tracer->Record(
            Span{"dimmunix.acquire", tracer->NextId(), parent, parent, t0, t1});
      }
    }
    if (!s.ok()) ++out->deadlocks;
    return s.ok();
  };
  auto release = [&](Monitor& m, bool sample, std::uint64_t parent) {
    const std::uint64_t t0 = sample ? NowNs() : 0;
    rt.Release(ctx, m);
    if (sample) {
      const std::uint64_t t1 = NowNs();
      out->release_ns.Add(static_cast<double>(t1 - t0));
      if (parent != 0) {
        tracer->Record(
            Span{"dimmunix.release", tracer->NextId(), parent, parent, t0, t1});
      }
    }
  };
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t iter = out->iterations.load(std::memory_order_relaxed);
    // Every run times 1 iteration in 16; traced runs also time its
    // acquisitions and keep a span for 1 iteration in 1024.
    const bool timed = iter % 16 == 0;
    const bool sample = timed_run && timed;
    const std::uint64_t span = timed_run && iter % 1024 == 0 ? tracer->NextId() : 0;
    const std::uint64_t it0 = timed ? NowNs() : 0;
    communix::sim::BusyWork(kWorkOutside);
    {
      Frames path(ctx, rig.private_frames[static_cast<std::size_t>(t)]);
      if (acquire(priv, sample, &out->clean_ns, span)) {
        communix::sim::BusyWork(kWorkInside);
        release(priv, sample, span);
      }
    }
    const std::uint64_t r = rng.NextBounded(64);
    if (r < 8) {
      const std::size_t k = rng.NextBounded(rig.covered_frames.size());
      Frames path(ctx, rig.covered_frames[k]);
      if (acquire(*rig.covered_monitors[k], sample, &out->signed_ns, span)) {
        communix::sim::BusyWork(kWorkInside);
        release(*rig.covered_monitors[k], false, 0);
      }
    } else if (r == 63) {
      // Even threads lock A then B, odd ones B then A: the ABBA bug.
      const bool forward = t % 2 == 0;
      Monitor& first = forward ? rig.a : rig.b;
      Monitor& second = forward ? rig.b : rig.a;
      Frames path(ctx, forward ? rig.x_frames : rig.y_frames);
      if (acquire(first, false, nullptr, 0)) {
        {
          Frames helper(ctx, {forward ? rig.x_helper : rig.y_helper});
          if (acquire(second, false, nullptr, 0)) {
            communix::sim::BusyWork(kWorkInside);
            release(second, false, 0);
          }
        }
        release(first, false, 0);
      }
    }
    if (timed) {
      const std::uint64_t it1 =
          span != 0 ? tracer->Close("app.iteration", span, 0, span, it0) : NowNs();
      out->iteration_us.Add(static_cast<double>(it1 - it0) / 1e3);
    }
    out->iterations.store(iter + 1, std::memory_order_relaxed);
  }
  rt.DetachThread(ctx);
}

}  // namespace

RunResult RunImmunity(const WorkloadArgs& args) {
  RunResult result;
  Tracer* tracer = args.env.tracer;
  const auto app = communix::bytecode::GenerateApp(AppSpec());
  if (app.nested_sites.size() < 23 || app.non_nested_sites.size() < kAppThreads) {
    result.Check(false, "synthetic app has too few nested/plain sites");
    return result;
  }
  const Plan plan = MakePlan(app, args.seed);
  const std::uint64_t total = plan.valid + plan.fakes;

  // ---- setup: daemons, tokens, preload, ABBA upload, download, analysis ----
  std::vector<std::vector<std::uint8_t>> downloaded;
  communix::bytecode::NestingReport nesting;
  Samples poll_ms, nesting_ms;
  double setup_s = 0;
  auto cluster_or = RepeatSetup(
      args.env, 0, args.setups,
      [&](Cluster& c) -> Status {
        // Follower first: the shipper's first round then finds it, and
        // setup does not wait out a 20 ms ship period by chance.
        if (auto s = c.StartFollower(); !s.ok()) return s;
        if (auto s = c.StartPrimary(); !s.ok()) return s;
        auto tokens = IssueTokens(c.primary_port(), plan.users);
        if (!tokens.ok()) return tokens.status();
        std::vector<net::Request> batches;
        for (std::size_t u = 0; u < plan.batches.size(); ++u) {
          batches.push_back(
              net::BuildAddBatchRequest(tokens.value()[u], plan.batches[u]));
        }
        auto statuses = SendBatches(c.primary_port(), batches);
        if (!statuses.ok()) return statuses.status();
        for (const auto& codes : statuses.value()) {
          for (ErrorCode code : codes) {
            if (code != ErrorCode::kOk) {
              return Status::Error(ErrorCode::kInternal, "preload refused");
            }
          }
        }
        auto abba = CallOnce(c.primary_port(),
                             AddRequest(tokens.value().back(), plan.abba_sig));
        if (!abba.ok()) return abba.status();
        if (!abba.value().ok()) {
          return Status::Error(abba.value().code, "ABBA upload refused");
        }
        if (auto s = WaitForSize(c.follower_port(), total); !s.ok()) return s;

        net::TcpClient transport;
        if (auto s = transport.Connect("127.0.0.1", c.follower_port()); !s.ok()) {
          return s;
        }
        communix::LocalRepository repo;
        communix::CommunixClient client(communix::SystemClock::Instance(),
                                        transport, repo);
        const std::uint64_t p0 = NowNs();
        auto fetched = client.PollOnce();
        const std::uint64_t p1 = NowNs();
        if (!fetched.ok()) return fetched.status();
        if (fetched.value() != total) {
          return Status::Error(ErrorCode::kDataLoss, "download is incomplete");
        }
        poll_ms.Add(static_cast<double>(p1 - p0) / 1e6);
        if (tracer) tracer->Record(Span{"client.poll_once", tracer->NextId(), 0, 0, p0, p1});
        downloaded.clear();
        for (std::size_t i = 0; i < repo.size(); ++i) downloaded.push_back(repo.bytes(i));

        // The agent's nesting pre-analysis (Table I's cost).
        DimmunixRuntime scratch(communix::SystemClock::Instance());
        const std::uint64_t n0 = NowNs();
        communix::CommunixAgent analyzer(scratch, app.program, repo);
        const std::uint64_t n1 = NowNs();
        nesting_ms.Add(static_cast<double>(n1 - n0) / 1e6);
        if (tracer) {
          tracer->Record(Span{"agent.nesting_analysis", tracer->NextId(), 0, 0, n0, n1});
        }
        nesting = analyzer.nesting_report();
        return Status::Ok();
      },
      &setup_s);
  if (!cluster_or.ok()) {
    result.Check(false, "setup: " + cluster_or.status().ToString());
    return result;
  }
  Cluster& cluster = *cluster_or.value();
  auto before_p = Scrape(cluster.primary_port());

  // One agent start over the downloaded batch, on a fresh runtime.
  Samples start_ms;
  communix::CommunixAgent::ScanReport report;
  auto agent_start = [&] {
    auto rt = std::make_unique<DimmunixRuntime>(communix::SystemClock::Instance());
    communix::LocalRepository repo;
    repo.Append(downloaded);
    communix::CommunixAgent agent(*rt, app.program, repo, nesting, {});
    const std::uint64_t t0 = NowNs();
    report = agent.ProcessNewSignatures();
    const std::uint64_t t1 = NowNs();
    start_ms.Add(static_cast<double>(t1 - t0) / 1e6);
    if (tracer) tracer->Record(Span{"agent.process", tracer->NextId(), 0, 0, t0, t1});
    result.Check(report.examined == total && report.accepted == plan.valid &&
                     report.rejected_hash == plan.fakes,
                 "agent examined/accepted/rejected-on-hash " +
                     std::to_string(report.examined) + "/" +
                     std::to_string(report.accepted) + "/" +
                     std::to_string(report.rejected_hash) + ", expected " +
                     std::to_string(total) + "/" + std::to_string(plan.valid) +
                     "/" + std::to_string(plan.fakes));
    return rt;
  };
  if (tracer != nullptr) {
    // Per-signature validation cost, outside the batch install.
    DimmunixRuntime scratch(communix::SystemClock::Instance());
    communix::LocalRepository repo;
    communix::CommunixAgent agent(scratch, app.program, repo, nesting, {});
    std::vector<communix::dimmunix::Signature> sigs;
    for (const auto& bytes : downloaded) {
      if (auto sig = communix::dimmunix::Signature::FromBytes(bytes)) {
        sigs.push_back(std::move(*sig));
      }
    }
    const std::uint64_t t0 = NowNs();
    for (auto& sig : sigs) (void)agent.ValidateAndTrim(sig);
    const std::uint64_t t1 = tracer->Close("agent.validate_all", tracer->NextId(),
                                           0, 0, t0);
    result.Detail("agent.validate_us_per_sig",
                  sigs.empty() ? 0 : static_cast<double>(t1 - t0) / 1e3 / sigs.size(),
                  "us");
  }

  AppRig rig;
  for (int t = 0; t < kAppThreads; ++t) {
    rig.private_frames.push_back(communix::sim::CanonicalStackFrames(
        app, app.non_nested_sites[static_cast<std::size_t>(t)]));
  }
  for (std::int32_t site : plan.covered_sites) {
    rig.covered_frames.push_back(communix::sim::CanonicalStackFrames(app, site));
    rig.covered_monitors.push_back(
        std::make_unique<Monitor>("covered" + std::to_string(site)));
  }
  rig.x_frames = communix::sim::CanonicalStackFrames(app, plan.abba_x);
  rig.y_frames = communix::sim::CanonicalStackFrames(app, plan.abba_y);
  rig.x_helper = communix::sim::CanonicalInnerFrames(app, plan.abba_x).back();
  rig.y_helper = communix::sim::CanonicalInnerFrames(app, plan.abba_y).back();

  // ---- timed part 1: agent starts, each on a fresh runtime; the app
  // threads then run on the last one ----
  // Each start runs pinned to the next CPU in turn. On this shared host a
  // single-threaded start takes ~30 ms or ~40 ms depending on which
  // core it lands on and when; the median of a run followed the mix and
  // jumped between the two, the fastest start repeats.
  std::unique_ptr<DimmunixRuntime> runtime;
  {
    cpu_set_t all;
    CPU_ZERO(&all);
    const bool pinned = ::sched_getaffinity(0, sizeof(all), &all) == 0;
    std::vector<int> cpus;
    for (int c = 0; pinned && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
    for (int rep = 0; rep < kAgentStarts; ++rep) {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[static_cast<std::size_t>(rep) % cpus.size()], &one);
        ::sched_setaffinity(0, sizeof(one), &one);
      }
      runtime = agent_start();
    }
    if (pinned) ::sched_setaffinity(0, sizeof(all), &all);
  }

  // ---- timed part 2: the app threads ----
  const auto stats0 = runtime->GetStats();
  std::atomic<bool> stop{false};
  AppOut outs[kAppThreads];
  Samples ops_by_second;
  const std::uint64_t w0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kAppThreads; ++t) {
      threads.emplace_back(AppThread, std::ref(*runtime), std::ref(rig), t,
                           args.seed, std::cref(stop), tracer, &outs[t]);
    }
    // Throughput per whole second of the window; the median second is
    // ops_per_s (a slow second on a shared host does not move it).
    std::uint64_t prev = 0;
    const auto seconds = static_cast<std::uint64_t>(std::max(1.0, args.seconds));
    for (std::uint64_t k = 1; k <= seconds; ++k) {
      SleepUntil(w0 + k * 1'000'000'000ull);
      std::uint64_t now = 0;
      for (const AppOut& o : outs) now += o.iterations.load(std::memory_order_relaxed);
      ops_by_second.Add(static_cast<double>(now - prev));
      prev = now;
    }
    stop.store(true);
    for (auto& th : threads) th.join();
  }
  const std::uint64_t w1 = NowNs();
  const auto stats1 = runtime->GetStats();

  std::uint64_t iterations = 0, deadlocks = 0;
  Samples iteration_us, clean_ns, signed_ns, release_ns;
  for (const AppOut& o : outs) {
    iterations += o.iterations.load();
    deadlocks += o.deadlocks;
    iteration_us.Append(o.iteration_us);
    clean_ns.Append(o.clean_ns);
    signed_ns.Append(o.signed_ns);
    release_ns.Append(o.release_ns);
  }
  result.attempted = iterations + start_ms.size() * total;
  result.failed = deadlocks;
  result.E2e("setup_s", setup_s, "s");
  result.E2e("peak_rss_mb", cluster.PeakRssMb(), "MB");
  result.E2e("op_p50_us", iteration_us.Quantile(0.5), "us");
  result.E2e("op_tail_us", iteration_us.Quantile(0.99), "us");
  result.E2e("deliver_ms", start_ms.Quantile(0), "ms");
  result.E2e("ops_per_s", ops_by_second.Median(), "1/s");
  result.Detail("agent_start_ms", start_ms.Quantile(0), "ms");
  result.facts.emplace_back("agent_start_ms.median", start_ms.Median());
  result.Detail("app_ops_per_s", ops_by_second.Median(), "1/s");
  result.Check(deadlocks == 0, "acquisitions that returned kDeadlock: " +
                                   std::to_string(deadlocks));
  result.Check(stats1.deadlocks_detected == stats0.deadlocks_detected,
               "the runtime detected a deadlock the signature should avoid");

  // ---- per-layer ----
  result.Detail("client.poll_once_ms", poll_ms.Median(), "ms");
  result.Detail("agent.nesting_analysis_ms", nesting_ms.Median(), "ms");
  result.Detail("agent.accept_ratio",
                report.examined > 0 ? static_cast<double>(report.accepted) /
                                          static_cast<double>(report.examined)
                                    : 0,
                "ratio");
  result.Detail("dimmunix.acquire_clean_ns.p50", clean_ns.Quantile(0.5), "ns");
  result.Detail("dimmunix.acquire_clean_ns.p99", clean_ns.Quantile(0.99), "ns");
  result.Detail("dimmunix.acquire_signed_ns.p50", signed_ns.Quantile(0.5), "ns");
  result.Detail("dimmunix.acquire_signed_ns.p99", signed_ns.Quantile(0.99), "ns");
  result.Detail("dimmunix.release_ns", release_ns.Quantile(0.5), "ns");
  const double acq = static_cast<double>(stats1.acquisitions - stats0.acquisitions);
  result.Detail("dimmunix.fast_path_ratio",
                acq > 0 ? static_cast<double>(stats1.fast_path_acquisitions -
                                              stats0.fast_path_acquisitions) /
                              acq
                        : 0,
                "ratio");
  auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  result.Detail("dimmunix.slow_path_entries",
                delta(stats0.slow_path_entries, stats1.slow_path_entries), "count");
  result.Detail("dimmunix.avoidance_suspensions",
                delta(stats0.avoidance_suspensions, stats1.avoidance_suspensions),
                "count");
  result.Detail("dimmunix.instantiation_scans",
                delta(stats0.instantiation_scans, stats1.instantiation_scans),
                "count");
  result.Detail("dimmunix.scans_skipped",
                delta(stats0.scans_skipped, stats1.scans_skipped), "count");
  result.Detail("dimmunix.handoffs", delta(stats0.handoffs, stats1.handoffs),
                "count");
  result.facts.emplace_back("app.iterations", static_cast<double>(iterations));
  auto after_p = Scrape(cluster.primary_port());
  if (before_p.ok() && after_p.ok()) {
    result.facts.emplace_back(
        "primary.gets_served_during_window",
        Delta(before_p.value(), after_p.value(), "server.gets_served"));
  }
  if (HostedObservations* obs = cluster.observations()) {
    std::lock_guard lock(obs->mu);
    ReportSharedLayers(*obs, net::MsgType::kGetSignatures, &result);
    result.Detail("shipper.empty_round_ratio",
                  EmptyRoundRatio(*obs, tracer->Spans(), w0, w1), "ratio");
  }
  runtime.reset();
  cluster.Stop();
  return result;
}

}  // namespace perfbench
