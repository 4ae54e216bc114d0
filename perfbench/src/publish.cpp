// Workload `publish`: the ADD path end to end.
//
// Open loop, 2,000 ADD/s to the primary (fixed spacing, 3 connections,
// each carrying its own users and bugs so every expected status is
// deterministic), about a sixth of the shipper's 256-per-20-ms ceiling.
// At 4,000/s the two daemons' O(db) saves and the watcher kept a 4-vCPU
// host ~85% busy, and the ack tail then followed the hypervisor's steal
// time (10x on some runs); at 2,000/s the host is ~25% busy.
// Mix: ~70% new signatures, ~25% duplicates (many users report the same
// deadlock; bug drawn Zipf over the bugs reported so far), ~5% expected
// rejections (adjacent signatures, plus over-quota submissions from one
// user). A watcher polls the follower's tip and stamps when each entry
// becomes visible there. The run ends with a flood: a fixed burst of
// kAddBatch frames whose drain through the shipper is timed.
#include <cmath>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "communix/ids.hpp"
#include "communix/store/signature_store.hpp"
#include "net/tcp.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace perfbench {
namespace {

namespace net = communix::net;
using communix::Rng;

constexpr double kRate = 2000;        // ADD/s, whole open loop
constexpr int kConns = 3;             // ADD connections (+1 watcher)
constexpr std::uint32_t kPerUser = 8; // honest users stay under 10/day
constexpr std::size_t kDailyLimit = 10;
constexpr std::size_t kFloodBursts = 3;       // flood_visible_per_s: median
constexpr std::size_t kFloodUsers = 800;       // per burst
constexpr std::size_t kFloodPerUser = 10;
constexpr std::size_t kBurst = kFloodUsers * kFloodPerUser;

struct Add {
  std::uint64_t due_ns = 0;  // offset from the window start
  std::uint32_t user = 0;    // index into Plan::users
  std::uint32_t sig = 0;     // index into Plan::sigs
  ErrorCode expect = ErrorCode::kOk;
  std::uint64_t span = 0;    // client span id (traced runs)
};

struct Plan {
  std::vector<std::vector<std::uint8_t>> sigs;
  std::vector<std::uint64_t> sig_hash;
  std::vector<std::uint64_t> users;  // user ids; the token table follows
  std::vector<Add> adds[kConns];
  std::size_t open_loop_accepts = 0;
  std::vector<std::uint32_t> flood_users;
  std::vector<std::vector<std::uint32_t>> flood_sigs;
};

/// The server's ADD decision procedure (quota, then adjacency, then
/// dedup), replayed on the generator's own inputs to derive the status
/// each ADD must get. Uses the store's public TopFrameSet/Adjacent.
class Oracle {
 public:
  ErrorCode Decide(std::uint64_t user, const communix::dimmunix::Signature& sig) {
    UserState& u = users_[user];
    if (u.processed >= kDailyLimit) return ErrorCode::kResourceExhausted;
    ++u.processed;
    const auto tops = communix::store::TopFrameSet(sig);
    for (const auto& prior : u.accepted) {
      if (communix::store::Adjacent(prior, tops)) {
        return ErrorCode::kPermissionDenied;
      }
    }
    if (!contents_.insert(sig.ContentId()).second) {
      return ErrorCode::kAlreadyExists;
    }
    u.accepted.push_back(tops);
    return ErrorCode::kOk;
  }

 private:
  struct UserState {
    std::size_t processed = 0;
    std::vector<communix::store::TopFrameKeys> accepted;
  };
  std::unordered_map<std::uint64_t, UserState> users_;
  std::unordered_set<std::uint64_t> contents_;
};

Plan MakePlan(std::uint64_t seed, double seconds) {
  Plan plan;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  Oracle oracle;
  std::uint64_t next_bug = 0;
  auto new_user = [&] {
    plan.users.push_back(communix::MakeUserId(1, plan.users.size() + 1));
    return static_cast<std::uint32_t>(plan.users.size() - 1);
  };
  auto add_sig = [&](const communix::dimmunix::Signature& sig) {
    plan.sigs.push_back(sig.ToBytes());
    plan.sig_hash.push_back(HashBytes(plan.sigs.back()));
    return static_cast<std::uint32_t>(plan.sigs.size() - 1);
  };
  struct ConnState {
    std::uint32_t user = 0;
    std::uint32_t used = kPerUser;  // forces a fresh user first
    std::vector<std::uint32_t> accepted;   // sig ids, first report first
    std::unordered_map<std::uint32_t, std::uint64_t> user_bug;  // last accept
  } conns[kConns];
  const std::uint32_t abuser = new_user();

  const auto total = static_cast<std::uint64_t>(std::llround(seconds * kRate));
  for (std::uint64_t i = 0; i < total; ++i) {
    const int c = static_cast<int>(i % kConns);
    ConnState& cs = conns[c];
    if (cs.used >= kPerUser) {
      cs.user = new_user();
      cs.used = 0;
    }
    Add add;
    add.due_ns = static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / kRate);
    add.user = cs.user;
    const double u = rng.NextDouble();
    std::optional<communix::dimmunix::Signature> sig;
    std::uint64_t bug = 0;
    bool fresh_bug = false;
    if (u < 0.70) {
      fresh_bug = true;
    } else if (u < 0.95) {
      if (cs.accepted.empty()) {
        fresh_bug = true;
      } else {
        // Zipf(1) over report order: early bugs are the popular ones.
        const double n = static_cast<double>(cs.accepted.size());
        auto k = static_cast<std::size_t>(
            std::exp(rng.NextDouble() * std::log(n + 1.0)));
        k = std::clamp<std::size_t>(k, 1, cs.accepted.size());
        add.sig = cs.accepted[k - 1];
      }
    } else if (u < 0.99) {
      const auto it = cs.user_bug.find(cs.user);
      if (it == cs.user_bug.end()) {
        fresh_bug = true;
      } else {
        sig = BugSignature(it->second, /*adjacent_variant=*/true);
      }
    } else if (c == 0) {
      add.user = abuser;  // over-quota once past its first 10
      fresh_bug = true;
    } else {
      fresh_bug = true;
    }
    if (fresh_bug) {
      bug = next_bug++;
      sig = BugSignature(bug);
    }
    if (sig) {
      add.sig = add_sig(*sig);
      add.expect = oracle.Decide(plan.users[add.user], *sig);
    } else {
      add.expect = oracle.Decide(
          plan.users[add.user],
          *communix::dimmunix::Signature::FromBytes(plan.sigs[add.sig]));
    }
    if (add.user != abuser) ++cs.used;
    if (add.expect == ErrorCode::kOk) {
      ++plan.open_loop_accepts;
      if (fresh_bug) {
        cs.accepted.push_back(add.sig);
        cs.user_bug[add.user] = bug;
      }
    }
    plan.adds[c].push_back(add);
  }
  for (std::size_t f = 0; f < kFloodBursts * kFloodUsers; ++f) {
    plan.flood_users.push_back(new_user());
    std::vector<std::uint32_t> sigs;
    for (std::size_t k = 0; k < kFloodPerUser; ++k) {
      sigs.push_back(add_sig(BugSignature(next_bug++)));
    }
    plan.flood_sigs.push_back(std::move(sigs));
  }
  return plan;
}

struct SenderOut {
  Samples ack_us, late_us, send_us;
  SecondSamples ack_us_by_second;  // by the second the ADD was due in
  std::vector<std::uint64_t> ack_ns;   // absolute, per add (0 = none)
  std::uint64_t mismatches = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t accepted = 0;
};

/// One open-loop ADD connection.
void RunSender(std::uint16_t port, const Plan& plan, const std::vector<Add>& adds,
               const std::vector<std::array<std::uint8_t, 16>>& tokens,
               std::uint64_t start_ns, Tracer* tracer, SenderOut* out) {
  out->ack_ns.assign(adds.size(), 0);
  PipeConn conn;
  if (!conn.Connect(port).ok()) {
    out->transport_errors = adds.size();
    return;
  }
  std::vector<std::uint64_t> sent_at(adds.size(), 0);
  std::size_t next_send = 0, next_ack = 0;
  const std::uint64_t give_up =
      start_ns + (adds.empty() ? 0 : adds.back().due_ns) + 30'000'000'000ull;
  auto on_reply = [&](std::span<const std::uint8_t> body, std::uint64_t at) {
    if (next_ack >= adds.size()) return;
    const Add& a = adds[next_ack];
    const auto resp = net::Response::Deserialize(body);
    if (!resp) {
      ++out->mismatches;
    } else {
      if (resp->code != a.expect) ++out->mismatches;
      if (resp->code == ErrorCode::kOk) ++out->accepted;
    }
    out->ack_ns[next_ack] = at;
    const double ack_us = static_cast<double>(at - (start_ns + a.due_ns)) / 1e3;
    out->ack_us.Add(ack_us);
    out->ack_us_by_second.Add(a.due_ns / 1'000'000'000, ack_us);
    if (tracer != nullptr) {
      tracer->Record(Span{"client.add", a.span, 0, a.span, sent_at[next_ack], at});
    }
    ++next_ack;
  };
  while (next_ack < adds.size()) {
    std::uint64_t now = NowNs();
    if (now > give_up) break;
    while (next_send < adds.size() && start_ns + adds[next_send].due_ns <= now) {
      const Add& a = adds[next_send];
      const auto frame = FrameOf(AddRequest(tokens[a.user], plan.sigs[a.sig]));
      const std::uint64_t t0 = NowNs();
      out->late_us.Add(static_cast<double>(t0 - (start_ns + a.due_ns)) / 1e3);
      auto sent = conn.Send(frame);
      if (!sent.ok()) {
        out->transport_errors = adds.size() - next_ack;
        return;
      }
      out->send_us.Add(static_cast<double>(sent.value()) / 1e3);
      sent_at[next_send] = t0;
      if (tracer != nullptr) {
        tracer->Record(Span{"net.send", tracer->NextId(), a.span, a.span, t0,
                            t0 + sent.value()});
      }
      ++next_send;
      now = NowNs();
    }
    const bool all_sent = next_send == adds.size();
    const std::uint64_t deadline =
        all_sent ? give_up : start_ns + adds[next_send].due_ns;
    if (!conn.Pump(deadline, on_reply, all_sent).ok()) break;
  }
  out->transport_errors += adds.size() - next_ack;
}

}  // namespace

RunResult RunPublish(const WorkloadArgs& args) {
  RunResult result;
  Tracer* tracer = args.env.tracer;
  Plan plan = MakePlan(args.seed, args.seconds);

  // Visibility slots: every ADD expected to be accepted, then the flood.
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of;  // sig hash
  std::vector<std::pair<int, std::size_t>> slot_add;  // (conn, index)
  std::unordered_map<std::uint64_t, std::uint64_t> add_spans;
  for (int c = 0; c < kConns; ++c) {
    for (std::size_t j = 0; j < plan.adds[c].size(); ++j) {
      Add& a = plan.adds[c][j];
      a.span = kAddSpanTag | (static_cast<std::uint64_t>(c) << 40) | j;
      if (a.expect != ErrorCode::kOk) continue;
      slot_of.emplace(plan.sig_hash[a.sig],
                      static_cast<std::uint32_t>(slot_add.size()));
      add_spans.emplace(plan.sig_hash[a.sig], a.span);
      slot_add.emplace_back(c, j);
    }
  }
  const std::size_t open_slots = slot_add.size();
  for (const auto& sigs : plan.flood_sigs) {
    for (std::uint32_t s : sigs) {
      slot_of.emplace(plan.sig_hash[s],
                      static_cast<std::uint32_t>(slot_add.size()));
      slot_add.emplace_back(-1, 0);
    }
  }
  if (tracer != nullptr) tracer->SetAddSpans(std::move(add_spans));

  // ---- setup: daemons, tokens, follower handshake ----
  std::vector<std::array<std::uint8_t, 16>> tokens;
  double setup_s = 0;
  auto cluster_or = RepeatSetup(
      args.env, 0, args.setups,
      [&](Cluster& c) -> Status {
        // Follower first: the shipper's first round then finds it, and
        // setup does not wait out a 20 ms ship period by chance.
        if (auto s = c.StartFollower(); !s.ok()) return s;
        if (auto s = c.StartPrimary(); !s.ok()) return s;
        auto issued = IssueTokens(c.primary_port(), plan.users);
        if (!issued.ok()) return issued.status();
        tokens = std::move(issued.value());
        // Synced = the shipper's handshake with the follower completed.
        for (int i = 0; i < 5000; ++i) {
          auto snap = Scrape(c.primary_port());
          if (snap.ok() && snap.value().Value("cluster.shipper.handshakes") > 0 &&
              snap.value().Value("cluster.shipper.active_feed_cursors") > 0) {
            return Status::Ok();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return Status::Error(ErrorCode::kUnavailable, "follower never synced");
      },
      &setup_s);
  if (!cluster_or.ok()) {
    result.Check(false, "setup: " + cluster_or.status().ToString());
    return result;
  }
  Cluster& cluster = *cluster_or.value();
  const std::uint16_t pport = cluster.primary_port();
  const std::uint16_t fport = cluster.follower_port();

  auto before_p = Scrape(pport);
  auto before_f = Scrape(fport);

  // ---- measured window ----
  // Written by the watcher only; read after it is joined.
  std::vector<std::uint64_t> visible_ns(slot_add.size(), 0);
  std::atomic<std::size_t> visible_count{0};
  std::atomic<bool> watcher_stop{false};
  std::atomic<std::uint64_t> watcher_errors{0};
  Samples watch_get_us;
  std::thread watcher([&] {
    net::TcpClient client;
    if (!client.Connect("127.0.0.1", fport).ok()) {
      watcher_errors.fetch_add(1);
      return;
    }
    std::uint64_t cursor = 0;
    while (!watcher_stop.load()) {
      net::Request get;
      get.type = net::MsgType::kGetSignatures;
      communix::BinaryWriter w;
      w.WriteU64(cursor);
      get.payload = w.take();
      const std::uint64_t span = tracer ? tracer->NextId() : 0;
      if (tracer != nullptr) tracer->AnnounceGet(cursor, span);
      const std::uint64_t t0 = NowNs();
      auto resp = client.Call(get);
      const std::uint64_t at = NowNs();
      if (tracer != nullptr) {
        tracer->Record(Span{"client.watch_get", span, 0, span, t0, at});
      }
      watch_get_us.Add(static_cast<double>(at - t0) / 1e3);
      if (!resp.ok() || !resp.value().ok()) {
        watcher_errors.fetch_add(1);
        return;
      }
      const auto parsed = ParseGetPayload(resp.value().payload);
      if (!parsed) {
        watcher_errors.fetch_add(1);
        return;
      }
      for (const auto& entry : parsed->entries) {
        const auto it = slot_of.find(HashBytes(entry));
        if (it != slot_of.end() && visible_ns[it->second] == 0) {
          visible_ns[it->second] = at;
          visible_count.fetch_add(1);
        }
      }
      cursor += parsed->count;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::uint64_t start_ns = NowNs() + 20'000'000;
  SenderOut outs[kConns];
  {
    std::vector<std::thread> senders;
    for (int c = 0; c < kConns; ++c) {
      senders.emplace_back(RunSender, pport, std::cref(plan),
                           std::cref(plan.adds[c]), std::cref(tokens), start_ns,
                           tracer, &outs[c]);
    }
    for (auto& t : senders) t.join();
  }
  const std::uint64_t window_end = NowNs();
  auto after_p = Scrape(pport);
  auto after_f = Scrape(fport);

  // ---- flood: fixed bursts through pipelined kAddBatch, one at a time;
  // each burst is timed from its first send until the follower serves
  // its last entry ----
  std::vector<std::uint64_t> flood_start(kFloodBursts, 0);
  std::uint64_t flood_bad = 0;
  const std::uint64_t wait_deadline = NowNs() + 60'000'000'000ull;
  for (std::size_t b = 0; b < kFloodBursts; ++b) {
    std::vector<net::Request> batches;
    for (std::size_t f = b * kFloodUsers; f < (b + 1) * kFloodUsers; ++f) {
      std::vector<std::vector<std::uint8_t>> sigs;
      for (std::uint32_t s : plan.flood_sigs[f]) sigs.push_back(plan.sigs[s]);
      batches.push_back(
          net::BuildAddBatchRequest(tokens[plan.flood_users[f]], sigs));
    }
    flood_start[b] = NowNs();
    auto flood = SendBatches(pport, batches);
    if (!flood.ok()) {
      flood_bad += kBurst;
    } else {
      for (const auto& codes : flood.value()) {
        for (ErrorCode code : codes) flood_bad += code != ErrorCode::kOk;
      }
    }
    // Every accepted entry so far must become visible on the follower.
    while (visible_count.load() < open_slots + (b + 1) * kBurst &&
           NowNs() < wait_deadline && watcher_errors.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  watcher_stop.store(true);
  watcher.join();

  // ---- metrics ----
  Samples ack_us, late_us, send_us, visible_ms;
  SecondSamples ack_us_by_second;
  std::uint64_t mismatches = 0, transport = 0, accepted = 0;
  for (const SenderOut& o : outs) {
    ack_us.Append(o.ack_us);
    ack_us_by_second.Append(o.ack_us_by_second);
    late_us.Append(o.late_us);
    send_us.Append(o.send_us);
    mismatches += o.mismatches;
    transport += o.transport_errors;
    accepted += o.accepted;
  }
  std::uint64_t never_visible = 0;
  std::vector<std::uint64_t> flood_last(kFloodBursts, 0);
  for (std::size_t s = 0; s < slot_add.size(); ++s) {
    if (visible_ns[s] == 0) {
      ++never_visible;
      continue;
    }
    if (s < open_slots) {
      const auto [c, j] = slot_add[s];
      visible_ms.Add(static_cast<double>(visible_ns[s] -
                                         (start_ns + plan.adds[c][j].due_ns)) /
                     1e6);
    } else {
      std::uint64_t& last = flood_last[(s - open_slots) / kBurst];
      last = std::max(last, visible_ns[s]);
    }
  }
  const std::size_t flood_size = kFloodBursts * kBurst;
  Samples flood_rate;
  for (std::size_t b = 0; b < kFloodBursts; ++b) {
    if (flood_last[b] > flood_start[b]) {
      const double s = static_cast<double>(flood_last[b] - flood_start[b]) / 1e9;
      flood_rate.Add(static_cast<double>(kBurst) / s);
      result.facts.emplace_back("flood.seconds." + std::to_string(b), s);
    }
  }
  result.attempted = ack_us.size() + transport + flood_size;
  result.failed = mismatches + transport + never_visible + flood_bad +
                  watcher_errors.load();
  result.E2e("setup_s", setup_s, "s");
  result.E2e("peak_rss_mb", cluster.PeakRssMb(), "MB");
  result.E2e("op_p50_us", ack_us_by_second.MedianOfSeconds(0.5), "us");
  result.E2e("op_tail_us", ack_us_by_second.MedianOfSeconds(0.9), "us");
  result.E2e("deliver_ms", visible_ms.Quantile(0.5), "ms");
  result.E2e("ops_per_s", flood_rate.Median(), "1/s");
  result.Detail("add_ack_p50_us", ack_us.Quantile(0.5), "us");
  result.Detail("add_ack_p90_us", ack_us.Quantile(0.90), "us");
  result.Detail("visible_p50_ms", visible_ms.Quantile(0.5), "ms");
  result.Detail("visible_p99_ms", visible_ms.Quantile(0.99), "ms");
  result.Detail("flood_visible_per_s", flood_rate.Median(), "1/s");

  // ---- correctness ----
  result.Check(mismatches == 0, "ADDs with an unexpected status: " +
                                    std::to_string(mismatches));
  result.Check(accepted == plan.open_loop_accepts,
               "accepted " + std::to_string(accepted) + " != distinct valid " +
                   std::to_string(plan.open_loop_accepts));
  result.Check(never_visible == 0, "entries never visible on the follower: " +
                                       std::to_string(never_visible));
  result.Check(flood_bad == 0, "flood statuses not OK: " + std::to_string(flood_bad));
  auto final_p = Scrape(pport);
  auto final_f = Scrape(fport);
  auto get_p = GetPayload(pport, 0);
  auto get_f = GetPayload(fport, 0);
  result.Check(get_p.ok() && get_f.ok() && get_p.value() == get_f.value(),
               "follower GET(0) bytes differ from the primary's");
  if (final_p.ok() && final_f.ok()) {
    result.Check(final_f.value().Value("server.repl_entries_applied") ==
                     final_p.value().Value("cluster.shipper.entries_shipped"),
                 "follower applied != primary shipped");
    result.Check(final_p.value().Value("server.adds_accepted") ==
                     plan.open_loop_accepts + flood_size,
                 "primary adds_accepted != expected");
  } else {
    result.Check(false, "final kStats scrape failed");
  }

  // ---- generator health and per-layer numbers ----
  result.Detail("gen.late_p99_us", late_us.Quantile(0.99), "us");
  result.Detail("gen.late_max_us", late_us.Max(), "us");
  // Flag: the generator, not the server, fell behind.
  result.facts.emplace_back("generator_behind",
                            late_us.Quantile(0.99) > 1000 ? 1 : 0);
  result.Detail("net.client_send_us", send_us.Median(), "us");
  if (before_p.ok() && after_p.ok()) {
    const auto& a = before_p.value();
    const auto& b = after_p.value();
    const double processed = Delta(a, b, "server.adds_processed");
    result.Detail("server.add_accept_ratio",
                  processed > 0 ? Delta(a, b, "server.adds_accepted") / processed : 0,
                  "ratio");
    result.Detail("server.adds_accepted", Delta(a, b, "server.adds_accepted"), "count");
    result.Detail("server.adds_duplicate", Delta(a, b, "server.adds_duplicate"), "count");
    result.Detail("server.rejected_adjacent", Delta(a, b, "server.rejected_adjacent"), "count");
    result.Detail("server.rejected_rate_limited",
                  Delta(a, b, "server.rejected_rate_limited"), "count");
  }
  if (before_f.ok() && after_f.ok()) {
    result.facts.emplace_back(
        "follower.repl_batches_applied",
        Delta(before_f.value(), after_f.value(), "server.repl_batches_applied"));
  }
  result.facts.emplace_back("watcher.get_p50_us", watch_get_us.Median());
  // The p99 tail follows the daemons' O(db) saves and does not repeat
  // from run to run (see README); it is kept in the record, not gated.
  result.facts.emplace_back("add_ack_p99_us", ack_us.Quantile(0.99));

  if (HostedObservations* obs = cluster.observations()) {
    std::lock_guard lock(obs->mu);
    ReportSharedLayers(*obs, net::MsgType::kAddSignature, &result);
    Samples wait_ms;
    for (std::size_t s = 0; s < open_slots; ++s) {
      const auto [c, j] = slot_add[s];
      const auto it = obs->shipped_at.find(plan.sig_hash[plan.adds[c][j].sig]);
      const std::uint64_t ack = outs[c].ack_ns[j];
      if (it != obs->shipped_at.end() && ack != 0 && it->second > ack) {
        wait_ms.Add(static_cast<double>(it->second - ack) / 1e6);
      }
    }
    result.Detail("shipper.wait_for_round_ms", wait_ms.Median(), "ms");
    result.Detail("follower.max_lag_entries",
                  static_cast<double>(obs->max_lag_entries), "count");
    result.Detail("shipper.empty_round_ratio",
                  EmptyRoundRatio(*obs, tracer->Spans(), start_ns, window_end),
                  "ratio");
    // How much of (visible - ack) the replication steps explain.
    const double gap_ms = visible_ms.Median() - ack_us.Median() / 1e3;
    const double parts_ms = wait_ms.Median() + obs->round_us.Median() / 1e3 +
                            obs->repl_batch_handle_us.Median() / 1e3;
    result.Detail("shipper.visible_gap_explained_ratio",
                  gap_ms > 0 ? parts_ms / gap_ms : 0, "ratio");
  }
  cluster.Stop();
  return result;
}

}  // namespace perfbench
