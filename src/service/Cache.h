//===- service/Cache.h - Fingerprint-keyed schedule cache -------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation service's schedule cache: a thread-safe, striped
/// in-memory LRU over complete per-configuration compilations (isl/
/// novec/infl schedules plus the influenced/vec flags), keyed by the
/// request fingerprint (service/Fingerprint.h), with an optional on-disk
/// backing store (one file per fingerprint under a cache directory).
///
/// Striping: the in-memory tier is split into Config::Stripes
/// independent shards selected by the fingerprint, so the daemon's
/// worker pool serializes per shard instead of on one global mutex.
/// Capacity (entry count) and MemoryCapBytes (approximate serialized
/// bytes) are whole-cache limits divided evenly across shards; each
/// shard evicts least-recently-used entries past its slice of either
/// limit.
///
/// Robustness contract: a corrupt, truncated, version-mismatched or
/// kernel-incompatible disk entry is *always* a miss — recorded on the
/// `service.cache.disk_rejects` counter — never an error or a crash. The
/// disk format carries a versioned header so stale formats from older
/// builds are rejected cleanly. A rejected entry is additionally moved
/// aside into `<dir>/quarantine/` (never deleted), so each corruption is
/// paid for once instead of re-read and re-rejected on every miss; the
/// move is journaled as a `quarantine` event. `sweepCacheDir` applies
/// the same policy eagerly at daemon startup, including to `*.tmp.*`
/// leftovers a kill -9 mid-write can strand.
///
/// Counters: `service.cache.{hits,misses,evictions,stores}` plus
/// `service.cache.{disk_hits,disk_rejects,quarantined}` for the backing
/// store.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SERVICE_CACHE_H
#define POLYINJECT_SERVICE_CACHE_H

#include "pipeline/Pipeline.h"
#include "service/Fingerprint.h"

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pinj {
namespace service {

/// Point-in-time cache statistics (also mirrored on obs counters; this
/// copy is per-instance, so tests do not race on the global registry).
struct CacheStats {
  std::uint64_t Hits = 0;        ///< Memory or disk hits.
  std::uint64_t Misses = 0;      ///< Lookups that found nothing usable.
  std::uint64_t Evictions = 0;   ///< LRU entries dropped at capacity.
  std::uint64_t Stores = 0;      ///< Entries accepted by store().
  std::uint64_t DiskHits = 0;    ///< Hits served from the backing store.
  std::uint64_t DiskRejects = 0; ///< Corrupt/stale disk entries skipped.
  std::uint64_t Quarantined = 0; ///< Rejected entries moved aside.
};

/// Serializes one cache entry to the versioned on-disk text form.
std::string encodeCacheEntry(const Fingerprint &Key,
                             const CachedCompilation &Entry);

/// Parses encodeCacheEntry output. \returns false and sets \p Error on
/// any malformed input or when the embedded fingerprint differs from
/// \p Expect (a renamed/moved file must not serve the wrong kernel).
bool decodeCacheEntry(const std::string &Text, const Fingerprint &Expect,
                      CachedCompilation &Out, std::string &Error);

/// The cache. All public methods are thread-safe; disk I/O happens
/// outside the shard locks so concurrent workers only serialize on the
/// shard maps.
class ScheduleCache : public CompilationCacheHook {
public:
  struct Config {
    /// Maximum in-memory entries across all stripes; least recently used
    /// is evicted per shard. 0 keeps nothing in memory (disk-only
    /// operation).
    std::size_t Capacity = 256;
    /// Backing-store directory (created on first store); empty disables
    /// the disk tier.
    std::string DiskDir;
    /// In-memory shards; clamped to [1, 256]. More stripes reduce lock
    /// contention under the daemon's worker pool at the cost of slightly
    /// uneven capacity use.
    std::size_t Stripes = 1;
    /// Approximate in-memory byte cap across all stripes (serialized
    /// entry size); 0 means unlimited. An entry larger than its shard's
    /// slice is served but not kept in memory.
    std::size_t MemoryCapBytes = 0;
  };

  ScheduleCache();
  explicit ScheduleCache(Config C);

  // CompilationCacheHook.
  bool lookup(const Kernel &K, const PipelineOptions &Options,
              CachedCompilation &Out) override;
  void store(const Kernel &K, const PipelineOptions &Options,
             const CachedCompilation &Entry) override;

  CacheStats stats() const;
  std::size_t size() const;
  /// Approximate bytes held by the in-memory tier.
  std::size_t memoryBytes() const;
  const Config &config() const { return Cfg; }

  /// Drops every in-memory entry (the disk tier is untouched).
  void clearMemory();

  /// The backing-store path for \p Key ("<dir>/<32hex>.psc"); empty
  /// when the disk tier is disabled. Exposed for tests and tooling.
  std::string diskPathFor(const Fingerprint &Key) const;

  /// The quarantine directory rejected entries are moved into; empty
  /// when the disk tier is disabled.
  std::string quarantineDir() const;

private:
  struct Entry {
    Fingerprint Key;
    CachedCompilation Value;
    std::size_t Bytes = 0; ///< Approximate serialized size.
  };

  /// One stripe of the in-memory tier: its own lock, LRU list, index and
  /// byte account. Stats are accumulated per shard and summed by
  /// stats().
  struct Shard {
    mutable std::mutex Mu;
    std::list<Entry> Lru; ///< Front = most recently used.
    std::map<Fingerprint, std::list<Entry>::iterator> Index;
    std::size_t Bytes = 0;
    CacheStats Stats;
  };

  Shard &shardFor(const Fingerprint &Key);
  const Shard &shardFor(const Fingerprint &Key) const;
  bool memoryLookup(const Fingerprint &Key, CachedCompilation &Out);
  void insertMemory(const Fingerprint &Key, const CachedCompilation &Value);
  bool diskLookup(const Fingerprint &Key, const Kernel &K,
                  CachedCompilation &Out);
  void diskStore(const Fingerprint &Key, const CachedCompilation &Value);
  void quarantineRejected(const std::string &Path, const std::string &Why,
                          Shard &S);

  Config Cfg;
  std::size_t ShardCapacity = 0;  ///< Entry cap per shard.
  std::size_t ShardCapBytes = 0;  ///< Byte cap per shard (0 unlimited).
  std::vector<std::unique_ptr<Shard>> Shards;
};

/// One startup recovery pass over a cache directory (see
/// sweepCacheDir).
struct SweepReport {
  std::size_t Scanned = 0;     ///< Files considered.
  std::size_t Kept = 0;        ///< Entries that validated cleanly.
  std::size_t Quarantined = 0; ///< Files moved into quarantine/.
  std::vector<std::string> QuarantinedFiles; ///< Their new paths.
};

/// Validates every entry under \p DiskDir the way a lookup would
/// (header, fingerprint-vs-filename, payload integrity) and moves
/// anything damaged — including `*.tmp.*` temp files stranded by a kill
/// mid-write — into `<DiskDir>/quarantine/`, emitting one `quarantine`
/// journal event per rejection. Never deletes; a missing directory is an
/// empty report. The daemon runs this before serving so a crash can
/// never poison warm state.
SweepReport sweepCacheDir(const std::string &DiskDir);

} // namespace service
} // namespace pinj

#endif // POLYINJECT_SERVICE_CACHE_H
