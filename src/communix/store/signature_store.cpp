#include "communix/store/signature_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>

#include "util/serde.hpp"

namespace communix::store {

std::uint64_t GenerateEpoch() {
  // Random high bits (distinct across processes/restarts) + a process
  // counter (distinct within a process even if the RNG repeats).
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t process_salt = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  const std::uint64_t e =
      process_salt ^ (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  return e == 0 ? 1 : e;
}

TopFrameKeys TopFrameSet(const dimmunix::Signature& sig) {
  TopFrameKeys tops;
  for (const auto& e : sig.entries()) {
    if (!e.outer.empty()) tops.insert(e.outer.TopKey());
    if (!e.inner.empty()) tops.insert(e.inner.TopKey());
  }
  return tops;
}

bool Adjacent(const TopFrameKeys& a, const TopFrameKeys& b) {
  if (a == b) return false;
  for (std::uint64_t k : a) {
    if (b.count(k) > 0) return true;
  }
  return false;
}

namespace {

/// Tenant-quota consumption against the community's day counter
/// (a UserState keyed by community id — only the day/processed_today
/// fields are used). Mirrors the per-user day reset in Add so both
/// quotas roll over at the same clock day.
bool ConsumeTenantQuota(UserState& tenant, std::int64_t day,
                        const Limits& limits) {
  if (limits.per_tenant_daily_limit == 0) return true;
  if (tenant.day != day) {
    tenant.day = day;
    tenant.processed_today = 0;
  }
  if (tenant.processed_today >= limits.per_tenant_daily_limit) return false;
  ++tenant.processed_today;
  return true;
}

// ---------------------------------------------------------------------------
// Persistence. The format lives in checkpoint.{hpp,cpp} now — saves
// write the framed/checksummed v3 layout (which doubles as the wire
// checkpoint a follower bootstraps from); v1/v2 files still load. This
// file keeps only the file-I/O shell around it.
// ---------------------------------------------------------------------------
Status WriteDbFile(const std::string& path,
                   const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "short write " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Error(ErrorCode::kUnavailable, "rename: " + ec.message());
  }
  return Status::Ok();
}

Status ParseDbFile(const std::string& path, CheckpointData* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return ParseCheckpoint(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()), out);
}

/// Tops of a store-resident entry (accepted or validated at ingest, so
/// the bytes are known-good; an empty set on the impossible parse
/// failure just weakens adjacency instead of corrupting anything).
TopFrameKeys TopsOfEntry(const StoredSignature& entry) {
  auto sig = dimmunix::Signature::FromBytes(
      std::span<const std::uint8_t>(entry.bytes.data(), entry.bytes.size()));
  return sig ? TopFrameSet(*sig) : TopFrameKeys{};
}

}  // namespace

SignatureStore::SignatureStore(const StoreOptions& options)
    : users_(options.shards),
      tenants_(options.shards),
      dedup_(options.shards),
      log_(std::make_shared<SignatureLog>()),
      cache_(std::max<std::size_t>(options.read_cache_slices, 1)),
      cache_enabled_(options.read_cache_slices > 0),
      epoch_(options.epoch != 0 ? options.epoch : GenerateEpoch()) {}

// ---------------------------------------------------------------------------
// The §III-C decision procedure. Order matters and matches the seed
// server: the daily quota counts *processed* signatures (so adjacency and
// duplicate rejections still consume quota), the tenant quota is
// consumed after the personal one (a sybil flood pays per-user budget to
// probe the tenant limit), adjacency is checked before dedup, and the
// commit records the top-frame set only for accepted signatures.
//
// Lock order: user shard -> tenant shard, then user shard -> dedup shard
// -> log append mutex, each strictly nested inside the sender's user
// shard and never taken the other way, so there is no cycle. A duplicate
// can be reported an instant before the winning append is published to
// readers; the decisions are still those of some serialized order.
// ---------------------------------------------------------------------------
AddOutcome SignatureStore::Add(UserId sender, std::int64_t day,
                               const TopFrameKeys& tops,
                               std::uint64_t content_id,
                               const dimmunix::Signature& sig,
                               TimePoint added_at, const Limits& limits) {
  const std::shared_ptr<SignatureLog> log = Log();
  return users_.With(sender, [&](UserState& state) {
    if (state.day != day) {
      state.day = day;
      state.processed_today = 0;
    }
    if (state.processed_today >= limits.per_user_daily_limit) {
      return AddOutcome::kRateLimited;
    }
    ++state.processed_today;

    // Different tenants stripe independently, so the multi-tenant hot
    // path stays contention-free across communities.
    if (!tenants_.With(CommunityOf(sender), [&](UserState& t) {
          return ConsumeTenantQuota(t, day, limits);
        })) {
      return AddOutcome::kTenantRateLimited;
    }

    if (limits.adjacency_check_enabled) {
      for (const auto& prior : state.accepted_top_sets) {
        if (Adjacent(prior, tops)) return AddOutcome::kAdjacent;
      }
    }
    if (!dedup_.TryInsert(content_id)) return AddOutcome::kDuplicate;

    StoredSignature stored;
    stored.bytes = sig.ToBytes();
    stored.content_id = content_id;
    stored.sender = sender;
    stored.added_at = added_at;
    log->Append(std::move(stored));
    state.accepted_top_sets.push_back(tops);
    return AddOutcome::kAccepted;
  });
}

void SignatureStore::VisitRange(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, const std::vector<std::uint8_t>&)>&
        fn) const {
  Log()->Visit(from, upto, [&](std::uint64_t i, const StoredSignature& s) {
    fn(i, s.bytes);
  });
}

std::uint64_t SignatureStore::size() const { return Log()->size(); }

void SignatureStore::VisitEntries(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, const StoredSignature&)>& fn)
    const {
  Log()->Visit(from, upto, fn);
}

std::uint64_t SignatureStore::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

Status SignatureStore::ApplyReplicated(std::uint64_t index,
                                       StoredSignature entry) {
  // The primary only ships entries it accepted, so these bytes must
  // round-trip; a parse failure is lineage corruption.
  auto sig = dimmunix::Signature::FromBytes(
      std::span<const std::uint8_t>(entry.bytes.data(), entry.bytes.size()));
  if (!sig) {
    return Status::Error(ErrorCode::kDataLoss,
                         "replicated signature fails to parse");
  }
  entry.content_id = sig->ContentId();
  TopFrameKeys tops = TopFrameSet(*sig);
  // Ingest is ordered (one entry at exactly size()), so serialize it
  // (also against the log swaps); lock-free GET scans stay concurrent
  // with the log append inside.
  std::lock_guard ingest(ingest_mu_);
  const std::shared_ptr<SignatureLog> log = Log();
  if (index != log->size()) {
    return Status::Error(ErrorCode::kFailedPrecondition,
                         "replication index gap");
  }
  if (!dedup_.TryInsert(entry.content_id)) {
    return Status::Error(ErrorCode::kDataLoss,
                         "replicated entry duplicates the dedup set");
  }
  users_.With(entry.sender, [&](UserState& state) {
    state.accepted_top_sets.push_back(std::move(tops));
  });
  log->Append(std::move(entry));
  return Status::Ok();
}

void SignatureStore::ResetForReplication(std::uint64_t new_epoch) {
  std::lock_guard ingest(ingest_mu_);
  users_.Clear();
  tenants_.Clear();
  dedup_.Clear();
  // Fresh log object: concurrent GET scans keep reading the retired
  // one (kept alive by their shared_ptr snapshots) to completion.
  PublishLogLocked(std::make_shared<SignatureLog>(), new_epoch);
}

Status SignatureStore::SaveToFile(const std::string& path) const {
  // The snapshot log's committed prefix is immutable, so no lock is
  // needed: entries appended after the size() load inside are simply
  // not part of the save.
  return WriteDbFile(path, SerializeCheckpoint(epoch(), CaptureSnapshot()));
}

Status SignatureStore::LoadFromFile(const std::string& path) {
  CheckpointData data;
  if (auto s = ParseDbFile(path, &data); !s.ok()) return s;
  InstallSnapshot(data.epoch != 0 ? data.epoch : GenerateEpoch(),
                  std::move(data.records));
  return Status::Ok();
}

std::uint64_t SignatureStore::read_generation() const {
  return ReadView().gen;
}

std::shared_ptr<const CachedSlice> SignatureStore::ReadSince(
    std::uint64_t from, ReadPath* path) {
  const View view = ReadView();
  const std::uint64_t n = view.log->size();
  if (from >= n) {
    if (path != nullptr) *path = ReadPath::kCacheHit;
    auto empty = std::make_shared<CachedSlice>();
    empty->from = from;
    empty->upto = from;
    return empty;
  }
  std::shared_ptr<const CachedSlice> prefix;
  if (cache_enabled_) {
    if (auto hit = cache_.Lookup(view.gen, from); hit != nullptr) {
      if (hit->upto == n) {
        if (path != nullptr) *path = ReadPath::kCacheHit;
        return hit;
      }
      prefix = std::move(hit);
    }
  }
  if (path != nullptr) {
    *path = prefix != nullptr ? ReadPath::kCacheExtend : ReadPath::kColdScan;
  }
  // Materialize [from, n), reusing a cached prefix when there is one (the
  // extension path: only [prefix->upto, n) is serialized).
  auto slice = std::make_shared<CachedSlice>();
  slice->from = from;
  slice->upto = n;
  slice->count = static_cast<std::uint32_t>(n - from);
  std::uint64_t scan_from = from;
  if (prefix != nullptr) {
    slice->payload = prefix->payload;  // the shared slice stays immutable
    scan_from = prefix->upto;
  }
  BinaryWriter w;
  view.log->Visit(scan_from, n, [&](std::uint64_t, const StoredSignature& s) {
    w.WriteBytes(std::span<const std::uint8_t>(s.bytes.data(), s.bytes.size()));
  });
  slice->payload.insert(slice->payload.end(), w.data().begin(),
                        w.data().end());
  // An insert that lost a race with a log swap is rejected by the
  // cache's generation check — a stale-log slice is never admitted.
  if (cache_enabled_) cache_.Insert(view.gen, slice);
  return slice;
}

ReadCache::Stats SignatureStore::read_cache_stats() const {
  return cache_.GetStats();
}

std::vector<StoredSignature> SignatureStore::CaptureSnapshot() const {
  const std::shared_ptr<SignatureLog> log = Log();
  const std::uint64_t n = log->size();
  std::vector<StoredSignature> snapshot;
  snapshot.reserve(n);
  log->Visit(0, n, [&](std::uint64_t i, const StoredSignature& s) {
    snapshot.push_back(s);
    snapshot.back().superseded = log->IsSuperseded(i);
  });
  return snapshot;
}

void SignatureStore::InstallSnapshot(std::uint64_t epoch,
                                     std::vector<CheckpointRecord> records) {
  std::lock_guard ingest(ingest_mu_);
  users_.Clear();
  tenants_.Clear();
  dedup_.Clear();
  std::vector<StoredSignature> entries;
  entries.reserve(records.size());
  for (auto& rec : records) {
    dedup_.TryInsert(rec.entry.content_id);
    users_.With(rec.entry.sender, [&](UserState& state) {
      state.accepted_top_sets.push_back(std::move(rec.tops));
    });
    entries.push_back(std::move(rec.entry));
  }
  // Populate a private log, then publish it whole.
  auto loaded = std::make_shared<SignatureLog>();
  loaded->Reset(std::move(entries));
  PublishLogLocked(std::move(loaded), epoch);
}

bool SignatureStore::MarkSuperseded(std::uint64_t index) {
  const std::shared_ptr<SignatureLog> log = Log();
  if (index >= log->size()) return false;
  return log->MarkSuperseded(index);
}

std::uint64_t SignatureStore::superseded_count() const {
  return Log()->superseded_count();
}

std::uint64_t SignatureStore::Compact() {
  std::lock_guard ingest(ingest_mu_);
  const std::shared_ptr<SignatureLog> log = Log();
  const std::uint64_t n = log->size();
  std::vector<StoredSignature> survivors;
  survivors.reserve(n);
  log->Visit(0, n, [&](std::uint64_t i, const StoredSignature& s) {
    if (!log->IsSuperseded(i)) survivors.push_back(s);
  });
  const std::uint64_t dropped = n - survivors.size();
  users_.Clear();
  tenants_.Clear();
  dedup_.Clear();
  // Derived state is rebuilt from survivors only, so the compacted
  // store is indistinguishable from one bootstrapped from its own
  // checkpoint (the invariant the store tests pin). Dropping a
  // replaced signature's content id deliberately re-opens dedup for
  // its replacement lineage.
  for (const StoredSignature& s : survivors) {
    dedup_.TryInsert(s.content_id);
    users_.With(s.sender, [&](UserState& state) {
      state.accepted_top_sets.push_back(TopsOfEntry(s));
    });
  }
  auto compacted = std::make_shared<SignatureLog>();
  compacted->Reset(std::move(survivors));
  PublishLogLocked(std::move(compacted), GenerateEpoch());
  return dropped;
}

/// Seqlock-style read: the swap path makes the generation odd, stores
/// the log, then makes it even, so a reader that saw a torn combination
/// (old generation, new log or vice versa) observes either an odd value
/// or two different values and retries. Same generation ⟺ same log.
SignatureStore::View SignatureStore::ReadView() const {
  for (;;) {
    const std::uint64_t g1 = gen_.load(std::memory_order_acquire);
    if ((g1 & 1) != 0) {
      std::this_thread::yield();
      continue;
    }
    std::shared_ptr<SignatureLog> log = Log();
    if (gen_.load(std::memory_order_acquire) == g1) {
      return View{g1, std::move(log)};
    }
  }
}

void SignatureStore::PublishLogLocked(std::shared_ptr<SignatureLog> log,
                                      std::uint64_t new_epoch) {
  gen_.fetch_add(1, std::memory_order_acq_rel);  // odd: swap in progress
  log_.store(std::move(log), std::memory_order_release);
  epoch_.store(new_epoch, std::memory_order_release);
  gen_.fetch_add(1, std::memory_order_release);  // even: next generation
}

}  // namespace communix::store
