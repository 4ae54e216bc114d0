// Property test: the store makes the §III-C validation decisions of a
// small reference model, at every shard count. Seeded random ADD / batch
// ADD / GET / day-rollover traces — including token forgeries,
// duplicates, adjacency collisions, per-user and per-tenant quota
// pressure — are applied to servers over 1, 4 and 16 lock stripes and to
// the model; per-op statuses, outcome totals, DB contents and index
// order must agree.
//
// The model is written from the paper's rules, not from the store's
// code: it shares no function with the store's Add path, so a change in
// the store's check order (say, dedup before adjacency) shows up here
// as a diverging status.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "../testutil.hpp"
#include "communix/server.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

constexpr std::size_t kShardCounts[] = {1, 4, 16};

CommunixServer::Options MakeOptions(std::size_t shards) {
  CommunixServer::Options opts;
  opts.store.shards = shards;
  return opts;
}

/// Reference model of the server-side ADD rules (§III-C), in order:
///   1. the sender's token must decode (forgeries change nothing);
///   2. per-user day quota: at most `per_user` signatures *processed*
///      per user per day — every later check consumes it;
///   3. per-community day quota (0 = off), consumed after the user's;
///   4. adjacency: refuse a signature sharing some but not all top
///      frames with one this user had accepted earlier;
///   5. dedup: an exact duplicate (same content id) of any accepted
///      signature is refused;
///   6. otherwise the signature is appended at the next index.
class ReferenceModel {
 public:
  enum class Outcome {
    kAccepted,
    kBadToken,
    kRateLimited,
    kTenantRateLimited,
    kAdjacent,
    kDuplicate,
  };

  ReferenceModel(std::size_t per_user, std::size_t per_tenant)
      : per_user_(per_user), per_tenant_(per_tenant) {}

  Outcome Add(UserId user, bool forged, const Signature& sig) {
    const Outcome outcome = Decide(user, forged, sig);
    ++totals_[outcome];
    return outcome;
  }

  void NextDay() { ++day_; }

  std::vector<std::vector<std::uint8_t>> GetSince(std::uint64_t from) const {
    if (from >= db_.size()) return {};
    return {db_.begin() + static_cast<std::ptrdiff_t>(from), db_.end()};
  }

  std::size_t size() const { return db_.size(); }

  std::uint64_t total(Outcome outcome) const {
    const auto it = totals_.find(outcome);
    return it == totals_.end() ? 0 : it->second;
  }

  static ErrorCode WireCode(Outcome outcome) {
    switch (outcome) {
      case Outcome::kAccepted:
        return ErrorCode::kOk;
      case Outcome::kBadToken:
      case Outcome::kAdjacent:
        return ErrorCode::kPermissionDenied;
      case Outcome::kRateLimited:
      case Outcome::kTenantRateLimited:
        return ErrorCode::kResourceExhausted;
      case Outcome::kDuplicate:
        return ErrorCode::kAlreadyExists;
    }
    return ErrorCode::kInternal;
  }

 private:
  using Tops = std::set<std::uint64_t>;

  struct DayCounter {
    std::int64_t day = -1;
    std::size_t used = 0;

    /// Consumes one unit of today's budget; false when it is spent.
    bool Take(std::int64_t today, std::size_t budget) {
      if (day != today) {
        day = today;
        used = 0;
      }
      if (used >= budget) return false;
      ++used;
      return true;
    }
  };

  static Tops TopsOf(const Signature& sig) {
    Tops tops;
    for (const auto& entry : sig.entries()) {
      if (!entry.outer.empty()) tops.insert(entry.outer.TopKey());
      if (!entry.inner.empty()) tops.insert(entry.inner.TopKey());
    }
    return tops;
  }

  static bool SomeButNotAll(const Tops& a, const Tops& b) {
    if (a == b) return false;
    return std::any_of(a.begin(), a.end(),
                       [&](std::uint64_t k) { return b.count(k) > 0; });
  }

  Outcome Decide(UserId user, bool forged, const Signature& sig) {
    if (forged) return Outcome::kBadToken;
    if (!users_[user].Take(day_, per_user_)) return Outcome::kRateLimited;
    if (per_tenant_ != 0 &&
        !tenants_[CommunityOf(user)].Take(day_, per_tenant_)) {
      return Outcome::kTenantRateLimited;
    }
    const Tops tops = TopsOf(sig);
    std::vector<Tops>& accepted = accepted_tops_[user];
    for (const Tops& prior : accepted) {
      if (SomeButNotAll(prior, tops)) return Outcome::kAdjacent;
    }
    if (!content_ids_.insert(sig.ContentId()).second) {
      return Outcome::kDuplicate;
    }
    accepted.push_back(tops);
    db_.push_back(sig.ToBytes());
    return Outcome::kAccepted;
  }

  const std::size_t per_user_;
  const std::size_t per_tenant_;
  std::int64_t day_ = 0;
  std::map<UserId, DayCounter> users_;
  std::map<CommunityId, DayCounter> tenants_;
  std::map<UserId, std::vector<Tops>> accepted_tops_;
  std::set<std::uint64_t> content_ids_;
  std::vector<std::vector<std::uint8_t>> db_;
  std::map<Outcome, std::uint64_t> totals_;
};

/// A signature whose top-frame lines come from a small pool, so random
/// picks collide: same salt twice = exact duplicate, overlapping salts =
/// adjacent (some-but-not-all shared tops), disjoint salts = accepted.
Signature PooledSig(std::uint32_t a, std::uint32_t b) {
  return Sig2(ChainStack("eq.A", 6, F("eq.A", "s", 10 + a)),
              ChainStack("eq.A", 6, F("eq.A", "i", 500 + a)),
              ChainStack("eq.B", 6, F("eq.B", "s", 10 + b)),
              ChainStack("eq.B", 6, F("eq.B", "i", 500 + b)));
}

bool StatsEqual(const CommunixServer::Stats& x,
                const CommunixServer::Stats& y) {
  return x.adds_accepted == y.adds_accepted &&
         x.adds_duplicate == y.adds_duplicate &&
         x.rejected_bad_token == y.rejected_bad_token &&
         x.rejected_rate_limited == y.rejected_rate_limited &&
         x.rejected_tenant_quota == y.rejected_tenant_quota &&
         x.rejected_adjacent == y.rejected_adjacent &&
         x.rejected_malformed == y.rejected_malformed &&
         x.gets_served == y.gets_served;
}

TEST(StoreEquivalenceTest, RandomTracesMatchReferenceModelAtEveryShardCount) {
  constexpr int kOps = 4'000;
  constexpr std::uint32_t kUsers = 12;
  constexpr std::uint32_t kCommunities = 3;
  constexpr std::uint32_t kTopPool = 40;
  // A tight personal quota and a community budget below the sum of its
  // four members' quotas make both rate-limit rejections common.
  constexpr std::size_t kPerUser = 2;
  constexpr std::size_t kPerTenant = 5;

  ReferenceModel model(kPerUser, kPerTenant);
  std::vector<std::unique_ptr<VirtualClock>> clocks;
  std::vector<std::unique_ptr<CommunixServer>> servers;
  for (const std::size_t shards : kShardCounts) {
    auto opts = MakeOptions(shards);
    opts.per_user_daily_limit = kPerUser;
    opts.per_tenant_daily_limit = kPerTenant;
    clocks.push_back(std::make_unique<VirtualClock>());
    servers.push_back(
        std::make_unique<CommunixServer>(*clocks.back(), opts));
  }
  const auto pick_user = [](Rng& rng) {
    const std::uint32_t u = rng.NextBounded(kUsers);
    return MakeUserId(1 + u % kCommunities, 1 + u);
  };

  Rng rng(0xE0E0);
  for (int op = 0; op < kOps; ++op) {
    const std::uint32_t kind = rng.NextBounded(100);
    if (kind < 70) {
      // ADD with a pooled signature; occasionally a forged token.
      const UserId user = pick_user(rng);
      const std::uint32_t a = rng.NextBounded(kTopPool);
      const std::uint32_t b = rng.NextBounded(kTopPool);
      const bool forge = rng.NextBounded(20) == 0;
      const Signature sig = PooledSig(a, b);
      const ErrorCode want =
          ReferenceModel::WireCode(model.Add(user, forge, sig));
      for (std::size_t s = 0; s < servers.size(); ++s) {
        UserToken token = servers[s]->IssueToken(user);
        if (forge) token[3] ^= 0x5A;
        ASSERT_EQ(servers[s]->AddSignature(token, sig).code(), want)
            << "op " << op << " shards " << kShardCounts[s];
      }
    } else if (kind < 90) {
      // GET(k): the model's suffix, byte for byte, on every server.
      const std::uint64_t size = model.size();
      const std::uint64_t from = size == 0 ? 0 : rng.NextBounded(
          static_cast<std::uint32_t>(size + 1));
      const auto expect = model.GetSince(from);
      for (std::size_t s = 0; s < servers.size(); ++s) {
        ASSERT_EQ(servers[s]->GetSince(from), expect)
            << "op " << op << " shards " << kShardCounts[s];
      }
    } else if (kind < 97) {
      // Batched ADD of 1-4 pooled signatures: processed in order, as
      // that many single ADDs.
      const UserId user = pick_user(rng);
      std::vector<Signature> sigs;
      const std::uint32_t n = 1 + rng.NextBounded(4);
      for (std::uint32_t i = 0; i < n; ++i) {
        sigs.push_back(PooledSig(rng.NextBounded(kTopPool),
                                 rng.NextBounded(kTopPool)));
      }
      std::vector<ErrorCode> want;
      for (const Signature& sig : sigs) {
        want.push_back(ReferenceModel::WireCode(model.Add(user, false, sig)));
      }
      for (std::size_t s = 0; s < servers.size(); ++s) {
        const auto got = servers[s]->AddBatch(
            servers[s]->IssueToken(user),
            std::span<const Signature>(sigs.data(), sigs.size()));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].code(), want[i])
              << "op " << op << " item " << i << " shards "
              << kShardCounts[s];
        }
      }
    } else {
      // Day rollover: both quotas reset.
      model.NextDay();
      for (auto& clock : clocks) clock->AdvanceDays(1.0);
    }
  }

  using O = ReferenceModel::Outcome;
  // The trace must exercise every rule, or agreement proves little.
  for (const O outcome : {O::kAccepted, O::kBadToken, O::kRateLimited,
                          O::kTenantRateLimited, O::kAdjacent,
                          O::kDuplicate}) {
    EXPECT_GT(model.total(outcome), 0u)
        << "outcome " << static_cast<int>(outcome) << " never happened";
  }
  const auto expect_db = model.GetSince(0);
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const auto stats = servers[s]->GetStats();
    EXPECT_EQ(stats.adds_accepted, model.total(O::kAccepted));
    EXPECT_EQ(stats.rejected_bad_token, model.total(O::kBadToken));
    EXPECT_EQ(stats.rejected_rate_limited, model.total(O::kRateLimited));
    EXPECT_EQ(stats.rejected_tenant_quota, model.total(O::kTenantRateLimited));
    EXPECT_EQ(stats.rejected_adjacent, model.total(O::kAdjacent));
    EXPECT_EQ(stats.adds_duplicate, model.total(O::kDuplicate));
    EXPECT_EQ(servers[s]->GetSince(0), expect_db)
        << "shards " << kShardCounts[s];
    EXPECT_TRUE(StatsEqual(stats, servers[0]->GetStats()))
        << "shards " << kShardCounts[s];
  }
}

TEST(StoreEquivalenceTest, ConcurrentDisjointLoadYieldsIdenticalTotals) {
  // Under real concurrency the interleaving is nondeterministic, but with
  // per-user disjoint workloads and globally unique contents the decision
  // totals are not: every ADD must be accepted at every shard count, and
  // the final databases must hold the same multiset of signatures.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;

  std::vector<std::vector<std::vector<std::uint8_t>>> dbs;
  std::vector<CommunixServer::Stats> stats;
  for (const std::size_t shards : kShardCounts) {
    VirtualClock clock;
    auto opts = MakeOptions(shards);
    opts.per_user_daily_limit = 1'000'000;
    CommunixServer server(clock, opts);
    std::atomic<int> accepted{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const UserToken token =
            server.IssueToken(static_cast<UserId>(t + 1));
        for (int i = 0; i < kPerThread; ++i) {
          // Disjoint line pools per thread: never adjacent, never dup.
          const std::uint32_t salt =
              static_cast<std::uint32_t>(10'000 + t * 100'000 + i * 10);
          const Signature sig =
              Sig2(ChainStack("cc.A", 6, F("cc.A", "s", salt)),
                   ChainStack("cc.A", 6, F("cc.A", "i", salt + 1)),
                   ChainStack("cc.B", 6, F("cc.B", "s", salt + 2)),
                   ChainStack("cc.B", 6, F("cc.B", "i", salt + 3)));
          if (server.AddSignature(token, sig).ok()) accepted.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(accepted.load(), kThreads * kPerThread);

    auto db = server.GetSince(0);
    std::sort(db.begin(), db.end());
    dbs.push_back(std::move(db));
    stats.push_back(server.GetStats());
  }
  for (std::size_t s = 1; s < dbs.size(); ++s) {
    EXPECT_EQ(dbs[s], dbs[0]) << "shards " << kShardCounts[s];
    EXPECT_TRUE(StatsEqual(stats[s], stats[0]))
        << "shards " << kShardCounts[s];
  }
}

}  // namespace
}  // namespace communix
