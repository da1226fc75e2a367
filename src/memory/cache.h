// Set-associative cache tag array with LRU replacement.
//
// The simulator models tags only — data values live in MainMemory (the
// architectural store) because timing, not payload, is what caches decide.
// That is also exactly the granularity at which the Spectre/Meltdown covert
// channel operates: presence or absence of a line.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "memory/set_assoc.h"

namespace safespec::memory {

/// Geometry + behaviour knobs for one cache level.
struct CacheConfig {
  std::string name = "cache";
  std::uint64_t size_bytes = 32 * 1024;
  int ways = 8;
  Cycle hit_latency = 4;
  std::uint64_t seed = 1;  ///< for SHARP's forced victim draws

  /// Victim-selection protection (SHARP / detect-only). kNone for every
  /// pre-existing policy; cpu::tuned_config() sets it.
  CacheProtection protection = CacheProtection::kNone;
  /// SHARP detector: alarms within one epoch before a detection fires.
  /// The exemplar recommends 2,000 alarms per epoch.
  std::uint64_t alarm_threshold = 2000;
  /// Epoch length in replacement stamps (tick_ advances once per stamping
  /// access — an access-count proxy for the exemplar's cycle epoch).
  std::uint64_t alarm_epoch_ticks = 1'000'000'000;

  /// Every level indexes 64-byte lines (line_of, kLineSize).
  int num_sets() const {
    return static_cast<int>(size_bytes /
                            (static_cast<std::uint64_t>(ways) * kLineSize));
  }
};

/// One level of cache. Addresses passed in are *line* numbers (byte
/// address >> line shift) — the hierarchy does the conversion once.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks a line up and records hit/miss stats. Returns hit.
  ///
  /// `update_replacement=false` is the SafeSpec speculative path: not even
  /// the replacement state may observe a speculative access (§IV-A notes
  /// that the cache replacement algorithm state must stay unaffected by
  /// speculative data that does not commit).
  ///
  /// `count_stats=false` excludes the access from hit/miss statistics —
  /// used for page-walker traffic so that the reported "read miss rate"
  /// counts program accesses identically under every protection mode.
  ///
  /// A hit never transfers ownership, so an access takes no owner: only
  /// fill() records who owns a line.
  bool access(Addr line, bool update_replacement = true,
              bool count_stats = true);

  /// Lookup with no side effects (no LRU update, no stats). The attack
  /// receivers use the *timed* path instead; probe() is for tests.
  bool probe(Addr line) const;

  /// fill()'s result when no line was evicted. No line equals it.
  static constexpr Addr kNoEviction = SetAssoc::kEmpty;

  /// Inserts a line, evicting if needed. Returns the evicted line (for
  /// inclusive back-invalidation) or kNoEviction if a free/duplicate way
  /// was used. Filling a line already present just refreshes it. `owner`
  /// is recorded as the line's owning context.
  Addr fill(Addr line, int owner = 0);

  /// Removes a line if present (clflush / back-invalidate). Returns
  /// whether it was present.
  bool invalidate(Addr line);

  /// Drops every line (used between attack trials).
  void flush_all();

  const CacheConfig& config() const { return config_; }
  HitMiss& stats() { return stats_; }
  const HitMiss& stats() const { return stats_; }

  /// Number of valid lines currently resident (tests / occupancy checks).
  std::size_t occupancy() const;

  /// Set index a line maps to (exposed for eviction-set construction in
  /// the Prime+Probe receiver and tests).
  int set_of(Addr line) const { return store_.set_of(line); }

  /// The context that filled a resident line, or -1 when absent (shared-
  /// level attribution; tests and the cross-core attack harness).
  int owner_of(Addr line) const;

  /// Fills whose victim belonged to a different context — the remote-
  /// eviction signal a spy observes at a shared level. Always 0 when
  /// every requester passes owner 0 (single-core).
  std::uint64_t cross_owner_evictions() const {
    return cross_owner_evictions_;
  }

  /// SHARP alarms: under kSharp, fills forced to evict across owners
  /// (no requester-owned way in the set); under kDetectOnly, every
  /// cross-owner eviction. Always 0 under kNone.
  std::uint64_t sharp_alarms() const { return sharp_alarms_; }

  /// Epochs in which the alarm count crossed config().alarm_threshold —
  /// the detector's "an attack is likely in progress" signal.
  std::uint64_t sharp_detections() const { return sharp_detections_; }

 private:
  /// Bumps the alarm counter and rolls the detector epoch lazily: when
  /// the stamp clock has moved past the current epoch the window restarts
  /// before the alarm is recorded, and a detection fires the moment an
  /// epoch's alarm count reaches the threshold (counted once per epoch).
  void record_alarm();

  CacheConfig config_;
  SetAssoc store_;
  /// Replacement stamp clock: advanced only when a stamp is written
  /// (touch/fill). LRU compares stamp order, not values, so skipping
  /// the bump on non-stamping accesses changes no eviction decision.
  std::uint64_t tick_ = 0;
  HitMiss stats_;
  std::uint64_t cross_owner_evictions_ = 0;
  std::uint64_t sharp_alarms_ = 0;
  std::uint64_t sharp_detections_ = 0;
  std::uint64_t epoch_start_tick_ = 0;
  std::uint64_t epoch_alarms_ = 0;
};

}  // namespace safespec::memory
