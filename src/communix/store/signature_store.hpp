// Storage layer of the Communix server.
//
// The server (communix/server.*) is the validation *pipeline*: it decodes
// sender tokens, checks signature well-formedness and maps outcomes to
// wire statuses. Everything stateful — the signature database, the
// per-user rate-limit/adjacency state, the dedup set and persistence —
// lives in SignatureStore.
//
// Layout: SignatureLog (lock-free committed reads) + UserStateShards
// (per-user lock striping, plus a second instance for per-community day
// quotas) + DedupIndex (striped content-id set). Concurrent ADDs from
// different users never contend, and GET scans never block ADDs. Add
// runs the §III-C decision procedure — day quota, tenant quota,
// adjacency, dedup, append — so accept/reject/duplicate outcomes and
// assigned GET indexes are those of some serialized order of the
// operations, independent of the shard count.
//
// The log is published through an atomic shared_ptr (RCU): replacing the
// whole database (ResetForReplication, LoadFromFile, InstallSnapshot,
// Compact) installs a fresh log object while in-flight readers finish
// against the retired one.
//
// Clients' incremental GET(k) cursors stay valid across restarts.
// Version 3 (checkpoint.hpp) frames and checksums the record stream so
// the same blob doubles as the wire checkpoint a far-behind follower
// bootstraps from; v2 (epoch in the header) and v1 (the seed server's
// exact layout, adopting a fresh epoch on load) still load.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "communix/ids.hpp"
#include "communix/store/checkpoint.hpp"
#include "communix/store/dedup_index.hpp"
#include "communix/store/read_cache.hpp"
#include "communix/store/signature_log.hpp"
#include "communix/store/user_state_shards.hpp"
#include "dimmunix/signature.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace communix::store {

/// Union of the top-frame keys of every stack in `sig` (adjacency input).
TopFrameKeys TopFrameSet(const dimmunix::Signature& sig);

/// "Some (but not all) top frames in common" (§III-C2): nonempty
/// intersection and the sets are not identical.
bool Adjacent(const TopFrameKeys& a, const TopFrameKeys& b);

/// Outcome of the store-side ADD decision procedure. The server maps
/// these to wire statuses; bad-token and malformed rejections happen
/// before the store is consulted.
enum class AddOutcome {
  kAccepted,
  kDuplicate,
  kRateLimited,
  kAdjacent,
  /// The sender's *community* exhausted its daily budget (multi-tenant
  /// quota — see Limits::per_tenant_daily_limit). Distinct from
  /// kRateLimited so a tenant-wide flood is visible as such in stats.
  kTenantRateLimited,
};

/// Knobs of the §III-C checks the store enforces.
struct Limits {
  std::size_t per_user_daily_limit = 10;
  bool adjacency_check_enabled = true;
  /// Daily budget of *processed* signatures per community (the tenant
  /// the sender's user id encodes — ids.hpp CommunityOf). Checked after
  /// the per-user quota, so a tenant-limited ADD has already consumed
  /// the sender's personal budget (a sybil flood cannot probe the tenant
  /// limit for free). 0 disables the check (single-tenant deployments).
  std::size_t per_tenant_daily_limit = 0;
};

struct StoreOptions {
  /// Lock stripes for the per-user state, the per-community quota state
  /// and the dedup set (rounded up to a power of two).
  std::size_t shards = 16;
  /// Log epoch (replication lineage id); 0 generates a fresh
  /// process-unique nonzero value. Tests pin it for determinism.
  std::uint64_t epoch = 0;
  /// Resident slice capacity of the 2Q hot-read cache behind ReadSince
  /// (read_cache.hpp). 0 disables caching: every ReadSince materializes
  /// a fresh slice (the cold path the cache exists to avoid).
  std::size_t read_cache_slices = 64;
  /// Requests whose total stage time is >= this are kept in the server's
  /// slow-trace ring and logged (obs/trace.hpp). 0 disables slow-request
  /// tracing (the all-requests ring still fills).
  std::uint64_t slow_request_ns = 0;
};

/// A fresh, process-unique, nonzero log epoch.
std::uint64_t GenerateEpoch();

class SignatureStore {
 public:
  explicit SignatureStore(const StoreOptions& options);
  SignatureStore(const SignatureStore&) = delete;
  SignatureStore& operator=(const SignatureStore&) = delete;

  /// Runs the stateful part of ADD validation for an already
  /// authenticated, well-formed signature: day quota, tenant quota,
  /// adjacency, dedup; on acceptance commits the signature at the next
  /// index. `day` is the caller's clock day, `tops` = TopFrameSet(sig),
  /// `content_id` = sig.ContentId(). The signature is serialized only on
  /// acceptance — rejection paths never pay for ToBytes().
  AddOutcome Add(UserId sender, std::int64_t day, const TopFrameKeys& tops,
                 std::uint64_t content_id, const dimmunix::Signature& sig,
                 TimePoint added_at, const Limits& limits);

  /// Visits serialized signatures with index in [from, min(upto, size()))
  /// in index order. Never blocks writers.
  void VisitRange(
      std::uint64_t from, std::uint64_t upto,
      const std::function<void(std::uint64_t index,
                               const std::vector<std::uint8_t>& sig_bytes)>&
          fn) const;

  std::uint64_t size() const;

  // ---- replication (cluster tier) ---------------------------------------

  /// Incremental committed-entry feed: visits entries with index in
  /// [from, min(upto, size())) in index order, with the full stored
  /// metadata (sender, added_at, bytes) replication must ship for the
  /// follower's log to be byte-identical. Same non-blocking guarantees
  /// as VisitRange.
  void VisitEntries(
      std::uint64_t from, std::uint64_t upto,
      const std::function<void(std::uint64_t index,
                               const StoredSignature& entry)>& fn) const;

  /// Log lineage id. Two stores with equal epochs hold byte-identical
  /// prefixes of the same log; the epoch changes only when the log's
  /// identity does (ResetForReplication, loading a file of another
  /// lineage). Lock-free read.
  std::uint64_t epoch() const;

  /// Follower ingest: commits an entry the primary already accepted, at
  /// exactly `index` (which must equal size() — replication is ordered).
  /// Rebuilds the dedup/adjacency state exactly as LoadFromFile does, so
  /// the follower enforces §III-C if it is ever promoted. Returns
  /// kFailedPrecondition on an index gap, kDataLoss if the bytes fail to
  /// parse or duplicate the dedup set (lineage corruption). Safe against
  /// concurrent reads; ingest itself is serialized internally.
  Status ApplyReplicated(std::uint64_t index, StoredSignature entry);

  /// Clears the whole store and adopts `new_epoch` — the catch-up path a
  /// follower takes when its lineage diverged from the primary's. This
  /// runs on a LIVE follower: it is safe against concurrent reads (a
  /// fresh log is published and in-flight scans finish against the
  /// retired one) and serialized against ApplyReplicated.
  /// Only concurrent Add is excluded — followers refuse ADDs anyway.
  void ResetForReplication(std::uint64_t new_epoch);

  /// Persistence. Saves write DB format v3 (checkpoint.hpp: framed,
  /// checksummed); v1 (seed layout) and v2 (+epoch) files still load.
  Status SaveToFile(const std::string& path) const;
  /// Restart-time only (like the seed's whole-db swap): not safe against
  /// concurrent Add/Visit.
  Status LoadFromFile(const std::string& path);

  // ---- read/bootstrap performance tier ----------------------------------

  /// Log-identity generation: bumps exactly when the log object the
  /// store serves reads from is replaced (ResetForReplication,
  /// LoadFromFile, InstallSnapshot, Compact) — NOT on Append, which only
  /// extends the same log. The ReadCache keys slices by it, so no slice
  /// built against a retired log is ever served (the RCU-invalidation
  /// argument: swap ⇒ new generation ⇒ whole-table clear on first
  /// access). Lock-free read; always a stable (not mid-swap) value.
  std::uint64_t read_generation() const;

  /// How a ReadSince was satisfied (the server's GET latency buckets).
  enum class ReadPath {
    kCacheHit,     // current slice served as-is, zero entry scans
    kCacheExtend,  // cached prefix reused, only the new suffix scanned
    kColdScan,     // full [from, size()) scan (miss or cache disabled)
  };

  /// Hot GET fast path: the materialized reply slice for entries
  /// [from, size()) — exactly the length-prefixed serialized-signature
  /// region a GET reply carries after its count prefix. Consults the 2Q
  /// cache first; a hit whose upto lags the committed length is extended
  /// (prefix bytes reused, only [upto, size()) scanned). Never blocks
  /// writers. A cursor at or past the committed
  /// length returns an empty, uncached slice (reported as kCacheHit —
  /// no entries were scanned). Never nullptr.
  std::shared_ptr<const CachedSlice> ReadSince(std::uint64_t from,
                                               ReadPath* path = nullptr);

  ReadCache::Stats read_cache_stats() const;

  /// Copy of the committed prefix (entries [0, size()) with superseded
  /// flags folded in) — the checkpoint input. Reads the immutable committed
  /// prefix without blocking writers.
  std::vector<StoredSignature> CaptureSnapshot() const;

  /// Installs a ParseCheckpoint-validated snapshot, replacing the whole
  /// store and adopting `epoch` — the bootstrap path a far-behind
  /// follower takes before replaying only the post-checkpoint log
  /// suffix via ApplyReplicated. Same liveness contract as
  /// ResetForReplication: safe against concurrent reads, serialized
  /// against ingest, concurrent Add excluded.
  void InstallSnapshot(std::uint64_t epoch,
                       std::vector<CheckpointRecord> records);

  /// Marks committed entry `index` superseded (ReplaceSignature /
  /// FP-disable lineage). Idempotent: true on the first mark, false if
  /// already marked or out of range. The entry keeps streaming in GETs
  /// until Compact — marks never perturb live cursors.
  bool MarkSuperseded(std::uint64_t index);
  std::uint64_t superseded_count() const;

  /// Drops every superseded entry, renumbering the survivors into a
  /// fresh log with a fresh epoch — compaction is a lineage change, and
  /// deliberately so: client GET cursors are (from + count) positions in
  /// the entry stream, so dropping entries in place would silently
  /// corrupt them, while an epoch bump routes both followers (via the
  /// anti-entropy reset handshake) and clients (via their epoch guard)
  /// through the existing lineage-change machinery. Equivalent to
  /// checkpointing the survivors and installing that checkpoint (the
  /// per-user adjacency state is rebuilt from survivors only), which is
  /// the invariant the store tests pin. Safe against concurrent reads;
  /// concurrent Add excluded, like ResetForReplication. Returns the
  /// number of entries dropped.
  std::uint64_t Compact();

 private:
  std::shared_ptr<SignatureLog> Log() const {
    return log_.load(std::memory_order_acquire);
  }

  /// A consistent (generation, log) pair — see ReadView.
  struct View {
    std::uint64_t gen;
    std::shared_ptr<SignatureLog> log;
  };
  View ReadView() const;

  /// Swaps the published log + epoch under the seqlock. Caller holds
  /// ingest_mu_ (swaps are serialized; the seqlock only shields the
  /// lock-free readers).
  void PublishLogLocked(std::shared_ptr<SignatureLog> log,
                        std::uint64_t new_epoch);

  UserStateShards users_;
  /// Per-community day quota (only the day/processed_today fields are
  /// used), striped independently of users_: nested acquisition in Add
  /// is always user → tenant across these two distinct structures, so
  /// there is no cycle. Cleared wherever users_ is.
  UserStateShards tenants_;
  DedupIndex dedup_;
  std::atomic<std::shared_ptr<SignatureLog>> log_;
  /// Serializes replication ingest and every log swap.
  std::mutex ingest_mu_;
  mutable ReadCache cache_;
  const bool cache_enabled_;
  std::atomic<std::uint64_t> epoch_;
  /// Log-identity generation (seqlock word): even when stable, odd
  /// mid-swap; the *user-visible* generation is the even value.
  std::atomic<std::uint64_t> gen_{0};
};

}  // namespace communix::store
