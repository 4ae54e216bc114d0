// Workload `poll`: the GET path end to end.
//
// Open loop, 300 GET/s to the follower over 3 connections (tip polls on
// one, GET(0) and stale polls alternating over the other two), while a
// 20 ADD/s trickle to the primary keeps the tip and the cache
// extensions moving. The follower's 4,000 preloaded entries (~4.8 MB)
// reach it through checkpoint bootstrap during setup: the primary is
// loaded first and the follower starts afterwards, far behind. Cursor
// mix per GET:
//   85% tip   (tip - U[0,50]): agents that polled recently;
//   10% GET(0):                fresh installs, the hot cached slice;
//    5% stale (U[0, tip)):     far more keys than the 64-slice 2Q
//                              cache holds, so cold scans.
// After the window, eleven closed-loop bursts of 400 GETs with the same
// mix, each from three agents polling back to back, measure the
// follower's GET rate.
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "communix/ids.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace perfbench {
namespace {

namespace net = communix::net;
using communix::Rng;

constexpr std::size_t kPreloadUsers = 400;
constexpr std::size_t kPerUser = 10;
constexpr std::uint64_t kPreload = kPreloadUsers * kPerUser;
constexpr double kGetRate = 300;
constexpr int kGetConns = 3;
constexpr double kTrickleRate = 20;
constexpr std::uint32_t kTrickleUsersPer = 8;
/// The loop runs this long before the measured window opens, so the 2Q
/// cache, the sockets and both daemons are in their steady state.
constexpr double kWarmupSeconds = 2;
constexpr auto kWarmupNs = static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
constexpr std::size_t kBursts = 11;       // ops_per_s: median burst
constexpr std::size_t kBurstGets = 400;
constexpr std::size_t kBurstConns = 3;

enum Class : int { kTip = 0, kFull = 1, kStale = 2 };
const char* const kClassName[] = {"tip", "full", "stale"};

struct Get {
  std::uint64_t due_ns = 0;
  Class cls = kTip;
  double draw = 0;  // tip offset in [0,50] or stale fraction in [0,1)
};

struct Plan {
  std::vector<std::uint64_t> users;
  std::vector<std::vector<std::vector<std::uint8_t>>> preload_sigs;
  std::vector<std::uint8_t> preload_prefix;  // GET(0) entry region prefix
  std::vector<std::vector<std::uint8_t>> trickle_sigs;
  std::vector<std::uint32_t> trickle_user;
  std::vector<Get> gets[kGetConns];
  std::vector<Get> bursts[kBursts];  // due_ns unused
};

/// Draws a GET's cursor offset for its class: tip - U[0,50] for a tip
/// GET, a fraction of the length for a stale one.
Get DrawGet(Rng& rng, Class cls) {
  Get g;
  g.cls = cls;
  g.draw = cls == kTip ? static_cast<double>(rng.NextInt(0, 50)) : rng.NextDouble();
  return g;
}

/// Draws a GET's class (85% tip, 10% GET(0), 5% stale) and offset.
Get DrawGet(Rng& rng) {
  const double u = rng.NextDouble();
  return DrawGet(rng, u < 0.85 ? kTip : (u < 0.95 ? kFull : kStale));
}

/// The cursor of `g` against a follower known to hold `len` entries.
std::uint64_t CursorOf(const Get& g, std::uint64_t len) {
  if (g.cls == kTip) {
    return len - std::min<std::uint64_t>(len, static_cast<std::uint64_t>(g.draw));
  }
  if (g.cls == kStale) return static_cast<std::uint64_t>(g.draw * static_cast<double>(len));
  return 0;
}

net::Request GetRequest(std::uint64_t cursor) {
  net::Request req;
  req.type = net::MsgType::kGetSignatures;
  communix::BinaryWriter w;
  w.WriteU64(cursor);
  req.payload = w.take();
  return req;
}

/// A GET(0) reply must start with exactly the preloaded database.
bool HoldsPreload(const Plan& plan, const std::vector<std::uint8_t>& payload) {
  return payload.size() >= 4 + plan.preload_prefix.size() &&
         std::memcmp(payload.data() + 4, plan.preload_prefix.data(),
                     plan.preload_prefix.size()) == 0;
}

Plan MakePlan(std::uint64_t seed, double seconds) {
  Plan plan;
  Rng rng(seed * 0xD1B54A32D192ED03ull + 7);
  std::uint64_t bug = 1'000'000;
  communix::BinaryWriter prefix;
  for (std::size_t u = 0; u < kPreloadUsers; ++u) {
    plan.users.push_back(communix::MakeUserId(2, u + 1));
    std::vector<std::vector<std::uint8_t>> sigs;
    for (std::size_t k = 0; k < kPerUser; ++k) {
      sigs.push_back(BugSignature(bug++).ToBytes());
      prefix.WriteBytes(sigs.back());
    }
    plan.preload_sigs.push_back(std::move(sigs));
  }
  plan.preload_prefix = prefix.take();
  const auto trickle = static_cast<std::size_t>(std::ceil(seconds * kTrickleRate));
  for (std::size_t i = 0; i < trickle; ++i) {
    if (i % kTrickleUsersPer == 0) {
      plan.users.push_back(communix::MakeUserId(2, plan.users.size() + 1));
    }
    plan.trickle_user.push_back(static_cast<std::uint32_t>(plan.users.size() - 1));
    plan.trickle_sigs.push_back(BugSignature(bug++).ToBytes());
  }
  const auto total = static_cast<std::uint64_t>(std::llround(seconds * kGetRate));
  std::uint64_t big_count = 0;
  for (std::uint64_t i = 0; i < total; ++i) {
    Get g = DrawGet(rng);
    g.due_ns = static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / kGetRate);
    // Frequent pollers keep a connection of their own; fresh installs and
    // stale agents alternate over the other two. Agents are independent
    // clients, so a tip poll never queues behind a megabyte reply.
    const int conn = g.cls == kTip ? 0 : 1 + static_cast<int>(big_count++ % 2);
    plan.gets[conn].push_back(g);
  }
  // Every burst holds exactly the mix's share of each class, in seeded
  // order: a burst's rate follows its few slow GETs, and a drawn mix
  // (40 +- 6 GET(0)s in 400) moved it more than the program did.
  for (auto& burst : plan.bursts) {
    for (std::size_t i = 0; i < kBurstGets; ++i) {
      const Class cls = i < kBurstGets * 85 / 100   ? kTip
                        : i < kBurstGets * 95 / 100 ? kFull
                                                    : kStale;
      burst.push_back(DrawGet(rng, cls));
    }
    for (std::size_t i = burst.size() - 1; i > 0; --i) {
      std::swap(burst[i], burst[rng.NextBounded(i + 1)]);
    }
  }
  return plan;
}

/// Shared view of the follower's length as the GET replies reveal it
/// (monotonic: one follower never serves a shorter log).
struct Shared {
  std::atomic<std::uint64_t> last_full_count{0};  // count of the last GET(0)
  std::atomic<std::uint64_t> known_len{kPreload};
  std::atomic<std::uint64_t> trickle_sent{0};
  void Observe(std::uint64_t len) {
    std::uint64_t cur = known_len.load();
    while (len > cur && !known_len.compare_exchange_weak(cur, len)) {
    }
  }
};

struct GetterOut {
  Samples lat_us[3], all_ms, late_us, parse_ns_per_kb;
  Samples service_us[3];  // from the actual send, not the due time
  Samples full_hit_us, full_extend_us;  // GET(0) by whether the log grew
  std::uint64_t bad = 0, transport = 0, done = 0;
};

void RunGetter(std::uint16_t port, const Plan& plan, const std::vector<Get>& gets,
               std::uint64_t start_ns, Shared* shared, Tracer* tracer,
               GetterOut* out) {
  PipeConn conn;
  if (!conn.Connect(port).ok()) {
    out->transport = gets.size();
    return;
  }
  struct Sent {
    std::uint64_t cursor, floor, span, at;
  };
  std::vector<Sent> sent(gets.size());
  std::size_t next_send = 0, next_ack = 0;
  const std::uint64_t give_up =
      start_ns + (gets.empty() ? 0 : gets.back().due_ns) + 30'000'000'000ull;
  auto on_reply = [&](std::span<const std::uint8_t> body, std::uint64_t at) {
    if (next_ack >= gets.size()) return;
    const Get& g = gets[next_ack];
    const Sent& s = sent[next_ack];
    const double us = static_cast<double>(at - (start_ns + g.due_ns)) / 1e3;
    const bool measured = g.due_ns >= kWarmupNs;
    if (measured) {
      out->lat_us[g.cls].Add(us);
      out->all_ms.Add(us / 1e3);
      out->service_us[g.cls].Add(static_cast<double>(at - s.at) / 1e3);
    }
    const std::uint64_t p0 = NowNs();
    const auto resp = net::Response::Deserialize(body);
    std::optional<GetEntries> parsed;
    if (resp && resp->ok()) parsed = ParseGetPayload(resp->payload);
    const std::uint64_t p1 = NowNs();
    out->parse_ns_per_kb.Add(static_cast<double>(p1 - p0) /
                             (static_cast<double>(body.size()) / 1024.0));
    if (tracer != nullptr) {
      tracer->Record(Span{"client.get", s.span, 0, s.span, s.at, at});
      tracer->Record(Span{"net.parse", tracer->NextId(), s.span, s.span, p0, p1});
    }
    ++next_ack;
    if (!parsed) {
      ++out->bad;
      return;
    }
    // The count must fit the cursor: the follower's length at serving
    // time lies between what was known when the GET was sent and what
    // the primary had been sent by now.
    const std::uint64_t end = s.cursor + parsed->count;
    const std::uint64_t ceiling = kPreload + shared->trickle_sent.load();
    if (end < s.floor || end > ceiling) ++out->bad;
    if (g.cls == kFull && !HoldsPreload(plan, resp->payload)) ++out->bad;
    shared->Observe(end);
    if (g.cls == kFull) {
      // Same length as the previous GET(0): the cached slice still
      // covers the log (a hit). Longer: the slice had to be extended.
      const std::uint64_t prev = shared->last_full_count.exchange(parsed->count);
      if (measured) {
        (prev == parsed->count ? out->full_hit_us : out->full_extend_us).Add(us);
      }
    }
    ++out->done;
  };
  while (next_ack < gets.size()) {
    std::uint64_t now = NowNs();
    if (now > give_up) break;
    while (next_send < gets.size() && start_ns + gets[next_send].due_ns <= now) {
      const Get& g = gets[next_send];
      const std::uint64_t len = shared->known_len.load();
      const std::uint64_t cursor = CursorOf(g, len);
      const std::uint64_t t0 = NowNs();
      sent[next_send] = {cursor, len, tracer ? tracer->NextId() : 0, t0};
      if (tracer != nullptr) tracer->AnnounceGet(cursor, sent[next_send].span);
      out->late_us.Add(static_cast<double>(t0 - (start_ns + g.due_ns)) / 1e3);
      if (!conn.Send(FrameOf(GetRequest(cursor))).ok()) {
        out->transport = gets.size() - next_ack;
        return;
      }
      ++next_send;
      now = NowNs();
    }
    const bool all_sent = next_send == gets.size();
    const std::uint64_t deadline =
        all_sent ? give_up : start_ns + gets[next_send].due_ns;
    if (!conn.Pump(deadline, on_reply, all_sent).ok()) break;
  }
  out->transport += gets.size() - next_ack;
}

/// One closed-loop burst: the GETs of `gets`, dealt round robin over
/// kBurstConns connections to a follower that holds exactly `len`
/// entries. Each connection is one agent polling back to back: it sends
/// its next GET when the previous reply arrived. Returns GETs per second
/// from the start to the last reply (0 if any GET went unanswered).
/// Unanswered GETs and replies that fail to parse, do not end at `len`
/// or (GET(0)) do not start with the preload are counted in *bad.
double RunBurst(std::uint16_t port, const Plan& plan, const std::vector<Get>& gets,
                std::uint64_t len, std::uint64_t* bad) {
  std::uint64_t answered[kBurstConns] = {}, wrong[kBurstConns] = {};
  std::uint64_t last_ns[kBurstConns] = {};
  auto agent = [&](std::size_t c) {
    PipeConn conn;
    if (!conn.Connect(port).ok()) return;
    const std::uint64_t give_up = NowNs() + 30'000'000'000ull;
    for (std::size_t i = c; i < gets.size(); i += kBurstConns) {
      const Get& g = gets[i];
      bool replied = false;
      auto on_reply = [&](std::span<const std::uint8_t> body, std::uint64_t at) {
        replied = true;
        last_ns[c] = at;
        const auto resp = net::Response::Deserialize(body);
        std::optional<GetEntries> parsed;
        if (resp && resp->ok()) parsed = ParseGetPayload(resp->payload);
        if (!parsed || CursorOf(g, len) + parsed->count != len ||
            (g.cls == kFull && !HoldsPreload(plan, resp->payload))) {
          ++wrong[c];
        }
      };
      if (!conn.Send(FrameOf(GetRequest(CursorOf(g, len)))).ok()) return;
      while (!replied && NowNs() < give_up) {
        if (!conn.Pump(give_up, on_reply, true).ok()) return;
      }
      if (!replied) return;
      ++answered[c];
    }
  };
  const std::uint64_t t0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kBurstConns; ++c) threads.emplace_back(agent, c);
    for (auto& t : threads) t.join();
  }
  std::uint64_t done = 0, last = t0;
  for (std::size_t c = 0; c < kBurstConns; ++c) {
    done += answered[c];
    *bad += wrong[c];
    last = std::max(last, last_ns[c]);
  }
  *bad += gets.size() - done;
  if (done < gets.size() || last == t0) return 0;
  return static_cast<double>(gets.size()) / (static_cast<double>(last - t0) / 1e9);
}

/// The 20 ADD/s trickle (open loop, every ADD expected to be accepted).
void RunTrickle(std::uint16_t port, const Plan& plan,
                const std::vector<std::array<std::uint8_t, 16>>& tokens,
                std::uint64_t start_ns, Shared* shared, std::uint64_t* bad,
                Samples* ack_us) {
  PipeConn conn;
  const std::size_t n = plan.trickle_sigs.size();
  if (!conn.Connect(port).ok()) {
    *bad = n;
    return;
  }
  std::size_t next_send = 0, next_ack = 0;
  auto due = [&](std::size_t i) {
    return start_ns + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 /
                                                 kTrickleRate);
  };
  const std::uint64_t give_up = due(n) + 30'000'000'000ull;
  auto on_reply = [&](std::span<const std::uint8_t> body, std::uint64_t at) {
    const auto resp = net::Response::Deserialize(body);
    if (!resp || !resp->ok()) ++*bad;
    ack_us->Add(static_cast<double>(at - due(next_ack)) / 1e3);
    ++next_ack;
  };
  while (next_ack < n && NowNs() < give_up) {
    while (next_send < n && due(next_send) <= NowNs()) {
      // Counted before the send: the ceiling for GET counts.
      shared->trickle_sent.fetch_add(1);
      const auto frame = FrameOf(
          AddRequest(tokens[plan.trickle_user[next_send]], plan.trickle_sigs[next_send]));
      if (!conn.Send(frame).ok()) {
        *bad += n - next_ack;
        return;
      }
      ++next_send;
    }
    const bool all_sent = next_send == n;
    if (!conn.Pump(all_sent ? give_up : due(next_send), on_reply, all_sent).ok()) {
      break;
    }
  }
  *bad += n - next_ack;
}

}  // namespace

RunResult RunPoll(const WorkloadArgs& args) {
  RunResult result;
  Tracer* tracer = args.env.tracer;
  const Plan plan = MakePlan(args.seed, kWarmupSeconds + args.seconds);

  std::vector<std::array<std::uint8_t, 16>> tokens;
  double setup_s = 0;
  auto cluster_or = RepeatSetup(
      args.env, 0, args.setups,
      [&](Cluster& c) -> Status {
        if (auto s = c.StartPrimary(); !s.ok()) return s;
        auto issued = IssueTokens(c.primary_port(), plan.users);
        if (!issued.ok()) return issued.status();
        tokens = std::move(issued.value());
        std::vector<net::Request> batches;
        for (std::size_t u = 0; u < kPreloadUsers; ++u) {
          batches.push_back(
              net::BuildAddBatchRequest(tokens[u], plan.preload_sigs[u]));
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
        // The follower starts far behind: checkpoint bootstrap.
        if (auto s = c.StartFollower(); !s.ok()) return s;
        return WaitForSize(c.follower_port(), kPreload);
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

  Shared shared;
  GetterOut outs[kGetConns];
  std::uint64_t trickle_bad = 0;
  Samples trickle_ack_us;
  const std::uint64_t start_ns = NowNs() + 20'000'000;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kGetConns; ++c) {
      threads.emplace_back(RunGetter, fport, std::cref(plan), std::cref(plan.gets[c]),
                           start_ns, &shared, tracer, &outs[c]);
    }
    threads.emplace_back(RunTrickle, pport, std::cref(plan), std::cref(tokens),
                         start_ns, &shared, &trickle_bad, &trickle_ack_us);
    for (auto& t : threads) t.join();
  }
  const std::uint64_t window_end = NowNs();
  auto after_p = Scrape(pport);
  auto after_f = Scrape(fport);

  // ---- bursts, once the follower holds every trickle ADD ----
  const std::uint64_t final_len = kPreload + plan.trickle_sigs.size();
  Samples burst_rate;
  std::uint64_t burst_bad = 0;
  if (WaitForSize(fport, final_len).ok()) {
    for (const auto& burst : plan.bursts) {
      burst_rate.Add(RunBurst(fport, plan, burst, final_len, &burst_bad));
    }
  } else {
    burst_bad = kBursts * kBurstGets;
  }
  const double peak_rss = cluster.PeakRssMb();

  Samples lat_us[3], service_us[3], all_ms, late_us, parse, full_hit, full_ext;
  std::uint64_t bad = 0, transport = 0, done = 0;
  for (const GetterOut& o : outs) {
    for (int k = 0; k < 3; ++k) {
      lat_us[k].Append(o.lat_us[k]);
      service_us[k].Append(o.service_us[k]);
    }
    all_ms.Append(o.all_ms);
    full_hit.Append(o.full_hit_us);
    full_ext.Append(o.full_extend_us);
    late_us.Append(o.late_us);
    parse.Append(o.parse_ns_per_kb);
    bad += o.bad;
    transport += o.transport;
    done += o.done;
  }
  result.attempted =
      done + bad + transport + plan.trickle_sigs.size() + kBursts * kBurstGets;
  result.failed = bad + transport + trickle_bad + burst_bad;
  result.E2e("setup_s", setup_s, "s");
  result.E2e("peak_rss_mb", peak_rss, "MB");
  result.E2e("op_p50_us", all_ms.Median() * 1e3, "us");
  result.E2e("op_tail_us", all_ms.Quantile(0.99) * 1e3, "us");
  result.E2e("deliver_ms", lat_us[kStale].Median() / 1e3, "ms");
  result.E2e("ops_per_s", burst_rate.Median(), "1/s");
  result.Detail("get_tip_p50_us", lat_us[kTip].Median(), "us");
  result.Detail("get_tip_p99_us", lat_us[kTip].Quantile(0.99), "us");
  // GET(0) latency is bimodal — cache hit vs extension after a trickle
  // append, mixed near 50/50 — so its overall median jumps between the
  // modes from run to run; each mode's median repeats.
  result.Detail("get_full_hit_p50_ms", full_hit.Median() / 1e3, "ms");
  result.Detail("get_full_extend_p50_ms", full_ext.Median() / 1e3, "ms");
  result.Detail("get_stale_p50_ms", lat_us[kStale].Median() / 1e3, "ms");
  result.Detail("get_p99_ms", all_ms.Quantile(0.99), "ms");

  result.Check(bad == 0, "GET replies that failed to parse or did not fit "
                         "their cursor: " + std::to_string(bad));
  result.Check(transport == 0, "GETs without a reply: " + std::to_string(transport));
  result.Check(trickle_bad == 0,
               "trickle ADDs not accepted: " + std::to_string(trickle_bad));
  result.Check(burst_bad == 0, "burst GETs unanswered, unparsable or not ending "
                               "at the follower's tip: " + std::to_string(burst_bad));
  for (int k = 0; k < 3; ++k) {
    result.facts.emplace_back(std::string("gets.") + kClassName[k],
                              static_cast<double>(lat_us[k].size()));
    result.facts.emplace_back(std::string("p50_us.") + kClassName[k],
                              lat_us[k].Median());
    result.facts.emplace_back(std::string("service_p50_us.") + kClassName[k],
                              service_us[k].Median());
  }
  result.facts.emplace_back("trickle.ack_p50_us", trickle_ack_us.Median());
  result.facts.emplace_back("gets.full_hit", static_cast<double>(full_hit.size()));
  result.facts.emplace_back("gets.full_extend", static_cast<double>(full_ext.size()));
  result.facts.emplace_back("gen.late_p50_us", late_us.Median());

  result.Detail("gen.late_p99_us", late_us.Quantile(0.99), "us");
  result.Detail("gen.late_max_us", late_us.Max(), "us");
  // Flag: the generator, not the server, fell behind.
  result.facts.emplace_back("generator_behind",
                            late_us.Quantile(0.99) > 1000 ? 1 : 0);
  result.Detail("net.get_parse_ns_per_kb", parse.Median(), "ns/KB");
  if (before_f.ok() && after_f.ok() && before_p.ok()) {
    const auto& a = before_f.value();
    const auto& b = after_f.value();
    const double gets = Delta(a, b, "server.gets_served");
    const double replies = gets + Delta(a, b, "server.repl_batches_applied");
    result.Detail("net.writev_flushes_per_reply",
                  replies > 0 ? Delta(a, b, "net.writev_flushes") / replies : 0,
                  "ratio");
    result.Detail("net.bytes_copied_per_get",
                  gets > 0 ? Delta(a, b, "server.reply_bytes_copied") / gets : 0, "B");
    result.Detail("net.bytes_shared_per_get",
                  gets > 0 ? Delta(a, b, "server.reply_bytes_shared") / gets : 0, "B");
    result.Detail("net.backpressure_stalls", Delta(a, b, "net.backpressure_stalls"),
                  "count");
    const auto hit = HistDelta(a, b, "server.get.cache_hit_ns");
    const auto ext = HistDelta(a, b, "server.get.cache_extend_ns");
    const auto cold = HistDelta(a, b, "server.get.cold_scan_ns");
    const double n = hit.first + ext.first + cold.first;
    result.Detail("store.get_hit_ratio", n > 0 ? (hit.first + ext.first) / n : 0,
                  "ratio");
    auto mean_us = [](std::pair<double, double> h) {
      return h.first > 0 ? h.second / h.first / 1e3 : 0;
    };
    result.Detail("store.cache_hit_us", mean_us(hit), "us");
    result.Detail("store.cache_extend_us", mean_us(ext), "us");
    result.Detail("store.cold_scan_us", mean_us(cold), "us");
    result.Detail("store.cache_evictions", Delta(a, b, "store.cache.evictions"),
                  "count");
    // Setup-time bootstrap: one checkpoint built on the primary and
    // installed on the follower (scraped after setup, since start).
    auto mean_ms = [](const communix::obs::HistogramSnapshot* h) {
      return h && h->count > 0 ? static_cast<double>(h->sum_ns) /
                                     static_cast<double>(h->count) / 1e6
                               : 0;
    };
    result.Detail("store.checkpoint_build_ms",
                  mean_ms(before_p.value().FindHistogram("server.checkpoint.build_ns")),
                  "ms");
    result.Detail("store.checkpoint_install_ms",
                  mean_ms(a.FindHistogram("server.checkpoint.install_ns")), "ms");
    result.Check(a.Value("server.checkpoints_installed") == 1,
                 "follower did not bootstrap from one checkpoint");
  } else {
    result.Check(false, "kStats scrape failed");
  }
  if (after_p.ok() && after_f.ok()) {
    result.Check(after_f.value().Value("server.repl_entries_applied") ==
                     after_p.value().Value("cluster.shipper.entries_shipped"),
                 "follower applied != primary shipped");
    result.Check(after_f.value().Value("server.checkpoint_entries_installed") ==
                     kPreload,
                 "checkpoint did not carry the preloaded database");
  }

  if (HostedObservations* obs = cluster.observations()) {
    std::lock_guard lock(obs->mu);
    ReportSharedLayers(*obs, net::MsgType::kGetSignatures, &result);
    for (int k = 0; k < 3; ++k) {
      result.Detail(std::string("server.get_handle_us.") + kClassName[k],
                    obs->get_handle_us[k].Median(), "us");
    }
    result.Detail("store.cold_scan_ns_per_entry", obs->cold_ns_per_entry.Median(),
                  "ns");
    result.Detail("shipper.empty_round_ratio",
                  EmptyRoundRatio(*obs, tracer->Spans(), start_ns, window_end),
                  "ratio");
  }
  cluster.Stop();
  return result;
}

}  // namespace perfbench
