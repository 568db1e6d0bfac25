//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent content-addressed artifact cache, robustness-first. Each
/// entry is a single file `<key>.art` in the cache directory whose first
/// line is a manifest and whose remainder is the payload verbatim:
///
///   SPIREART1 key=<32 hex> hash=<16 hex> size=<decimal> tool=<id>\n
///   <payload bytes>
///
/// The key is derived by the caller (driver::cacheKeyFor hashes input
/// bytes + output-affecting PipelineOptions + the format version); the
/// hash line re-commits the payload so torn, truncated, or bit-flipped
/// entries are detected on every read. The crash-consistency contract:
///
///   - Writes stage-and-rename through writeFileAtomic, so a kill -9 at
///     any instant leaves either the old entry, the new entry, or an
///     orphaned temp — never a torn file visible under the entry name.
///   - Reads re-hash the payload against the manifest; any mismatch
///     quarantines the entry (rename into `quarantine/`), bumps the
///     `cache.corrupt` counter, and reports a miss so the caller
///     silently recomputes. Never a wrong answer, never a failed
///     request because the cache is damaged.
///   - Concurrent writers race benignly: rename(2) is atomic and both
///     racers stage identical bytes for identical keys.
///   - Transient I/O faults (SPIRE_FAULT sites `cache.*`) are retried
///     with bounded backoff, then the operation degrades to uncached
///     (`cache.io_errors`) rather than failing the request.
///
/// Size-capped LRU eviction (`--cache-max-mb`) removes oldest-used
/// entries after each store; hits touch the entry mtime so recency is
/// the file timestamp. All traffic is published through obs counters:
/// cache.hits/misses/corrupt/evicted/stores/store_failures/retries/
/// io_errors/stale_temps_removed.
///
//===----------------------------------------------------------------------===//

#ifndef SPIRE_SUPPORT_ARTIFACTCACHE_H
#define SPIRE_SUPPORT_ARTIFACTCACHE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace spire::support {

/// Bumped whenever the entry format or key derivation changes; part of
/// the cache key, so stale formats read as misses rather than garbage.
inline constexpr int ArtifactCacheFormatVersion = 2;

/// Stable 64-bit content hash (SplitMix64 finalizer over 8-byte
/// little-endian chunks). tools/crash_check.py re-implements this to
/// validate entries from the outside; keep the two in sync.
uint64_t hashBytes(std::string_view Data);

struct CacheConfig {
  std::string Dir;
  /// Soft size cap in bytes; 0 means unlimited. Enforced by LRU
  /// eviction after each store.
  int64_t MaxBytes = 0;
  /// Retries after a failed read/write before degrading to uncached.
  int RetryAttempts = 2;
  /// Base backoff between retries; doubles per attempt.
  int RetryBackoffMs = 1;
  /// Manifest tool id (space-free); mismatches read as misses.
  std::string ToolVersion;
};

class ArtifactCache {
public:
  /// Creates the cache directory (and `quarantine/`) if missing, sweeps
  /// orphaned staging temps, and returns a ready cache. Returns null
  /// with a one-line reason in \p Error when the directory cannot be
  /// made usable — callers degrade to uncached operation.
  static std::unique_ptr<ArtifactCache> open(const CacheConfig &Config,
                                             std::string &Error);

  /// Returns the verified payload for the key, or nullopt on miss. A
  /// corrupt entry is quarantined and reported as a miss; a hit touches
  /// the entry for LRU recency.
  std::optional<std::string> lookup(uint64_t KeyHi, uint64_t KeyLo);

  /// Stores the payload under the key (atomic stage-and-rename), then
  /// applies the size cap. Returns false when the write ultimately
  /// failed; the caller's result is unaffected either way.
  bool store(uint64_t KeyHi, uint64_t KeyLo, std::string_view Payload);

  /// Entry file name for a key: `<32 hex>.art`.
  static std::string entryName(uint64_t KeyHi, uint64_t KeyLo);

  const std::string &dir() const { return Config.Dir; }

  /// Per-instance traffic counts (global counters mirror these).
  int64_t hits() const { return Hits; }
  int64_t misses() const { return Misses; }
  int64_t corrupt() const { return Corrupt; }
  int64_t evicted() const { return Evicted; }
  int64_t stores() const { return Stores; }

private:
  explicit ArtifactCache(CacheConfig C) : Config(std::move(C)) {}

  std::string entryPath(uint64_t KeyHi, uint64_t KeyLo) const;
  /// Moves a damaged entry into `quarantine/` (unlinks if the rename
  /// itself fails) and records it.
  void quarantine(const std::string &Path, const std::string &Reason);
  /// Evicts oldest-used entries until the directory fits MaxBytes.
  void enforceSizeCap();

  CacheConfig Config;
  int64_t Hits = 0;
  int64_t Misses = 0;
  int64_t Corrupt = 0;
  int64_t Evicted = 0;
  int64_t Stores = 0;
};

} // namespace spire::support

#endif // SPIRE_SUPPORT_ARTIFACTCACHE_H
