// Three-level inclusive cache hierarchy with the Table II latency model.
//
// Two access styles exist deliberately:
//   * timed_access(..., Fill::kYes)  — classic behaviour: a miss allocates
//     into every level on the way in (inclusive). This is the *baseline*
//     (insecure) datapath, and also the commit-time promotion path.
//   * timed_access(..., Fill::kNo)   — lookup + latency only: no fill and
//     no replacement-recency update at any level, the hit level included.
//     SafeSpec uses this for speculative accesses: the line's residence
//     is provided by the shadow structure instead, so the primary
//     hierarchy stays untouched (§III, §IV-A).
//
// Multi-core split: the L1s are per-core (one CacheHierarchy per core),
// while L2/L3 live in a SharedLevels object that several hierarchies can
// attach to. Every shared-level fill records the owning core id in the
// level's SetAssoc ways, and an inclusive eviction at L2/L3
// back-invalidates the L1s of *every* attached core — which is exactly
// the remote-eviction channel the cross-core attacks probe.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "memory/cache.h"

namespace safespec::memory {

class CacheHierarchy;

/// Which structure ultimately supplied the data.
enum class HitLevel : std::uint8_t { kL1, kL2, kL3, kMemory };

/// Configuration of the whole hierarchy. The defaults are Table II (the
/// "skylake" preset is the config structs' defaults).
struct HierarchyConfig {
  CacheConfig l1i{.name = "L1I", .size_bytes = 32 * 1024, .ways = 8,
                  .hit_latency = 4};
  CacheConfig l1d{.name = "L1D", .size_bytes = 32 * 1024, .ways = 8,
                  .hit_latency = 4};
  CacheConfig l2{.name = "L2", .size_bytes = 256 * 1024, .ways = 4,
                 .hit_latency = 12};
  CacheConfig l3{.name = "L3", .size_bytes = 2 * 1024 * 1024, .ways = 16,
                 .hit_latency = 44};
  Cycle memory_latency = 191;
};

/// Instruction- vs data-side L1 selection.
enum class Side : std::uint8_t { kInstr, kData };

struct AccessOutcome {
  Cycle latency = 0;
  HitLevel level = HitLevel::kMemory;
  bool l1_hit() const { return level == HitLevel::kL1; }
};

/// The shared portion of the hierarchy: the L2 and L3 tag arrays plus the
/// memory latency, with a registry of attached per-core hierarchies so
/// inclusive evictions back-invalidate every core's L1s. One instance per
/// machine, which every core's CacheHierarchy borrows.
class SharedLevels {
 public:
  explicit SharedLevels(const HierarchyConfig& config);

  // Attached hierarchies hold a pointer to this object.
  SharedLevels(const SharedLevels&) = delete;
  SharedLevels& operator=(const SharedLevels&) = delete;

  /// The below-L1 part of a timed lookup: L2, then L3, then memory. With
  /// `fill`, the hit level's replacement recency is refreshed and the
  /// historical inclusive fill runs on each path; the caller
  /// (CacheHierarchy::timed_access) fills its own L1 afterwards. Without
  /// it, the shared levels are left exactly as found. `owner` is the
  /// requesting core id.
  ///
  /// Known inclusion quirk (deliberately preserved): on the *L3-hit*
  /// path the promotion fill into L2 discards its eviction — the line
  /// pushed out of L2 is not back-invalidated from the attached L1s, so
  /// an L1 can briefly hold a line that no longer sits in L2 (strict
  /// inclusion is violated L1-vs-L2, never L1/L2-vs-L3; the line is
  /// still in L3, so a later L3 eviction cleans it up). The from-memory
  /// path (fill_shared) *does* back-invalidate both levels' evictions.
  /// Every golden cycle count and attack trace pins this behaviour —
  /// see memory_test's L3-hit-path inclusion test and ROADMAP item 4(a),
  /// which plans the fix, before changing it.
  AccessOutcome access_below_l1(Addr line, bool fill, bool count_stats,
                                int owner);

  /// Inclusive fill of L3 then L2 (the from-memory / promotion path).
  /// Evictions back-invalidate the L1s of every attached core.
  void fill_shared(Addr line, int owner);

  /// clflush at the shared levels: removes the line from L2, L3 and every
  /// attached core's L1s (coherence-global, as on real hardware).
  void flush_line(Addr line);

  Cache& l2() { return l2_; }
  Cache& l3() { return l3_; }
  const Cache& l2() const { return l2_; }
  const Cache& l3() const { return l3_; }
  Cycle memory_latency() const { return memory_latency_; }

  /// Sum over L2+L3 of fills that evicted another core's line — the
  /// machine-wide remote-eviction (contention) signal.
  std::uint64_t cross_core_evictions() const {
    return l2_.cross_owner_evictions() + l3_.cross_owner_evictions();
  }

  /// Sum over L2+L3 of SHARP alarms / detections. Always zero unless the
  /// protection policy selected a CacheProtection (SHARP / detect-only).
  std::uint64_t sharp_alarms() const {
    return l2_.sharp_alarms() + l3_.sharp_alarms();
  }
  std::uint64_t sharp_detections() const {
    return l2_.sharp_detections() + l3_.sharp_detections();
  }

  int num_attached() const { return static_cast<int>(attached_.size()); }

 private:
  friend class CacheHierarchy;  // attach/detach from its ctor/dtor only
  void attach(CacheHierarchy* h) { attached_.push_back(h); }
  void detach(CacheHierarchy* h);

  /// Inclusive back-invalidation of `line` in every attached core's L1s.
  void back_invalidate_l1s(Addr line);

  Cache l2_;
  Cache l3_;
  Cycle memory_latency_;
  std::vector<CacheHierarchy*> attached_;
};

/// One core's view of the hierarchy: owns the two L1 tag arrays, borrows
/// the shared L2/L3, and implements lookup / fill / invalidate across
/// them with inclusive semantics.
class CacheHierarchy {
 public:
  /// Attaches to `shared` (which must outlive it) and stamps every L2/L3
  /// request with `owner` (its core id).
  CacheHierarchy(const HierarchyConfig& config, SharedLevels& shared,
                 int owner);
  ~CacheHierarchy();

  // The SharedLevels attach registry holds `this`.
  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  enum class Fill : std::uint8_t { kNo, kYes };

  /// Performs a timed lookup of the line containing byte address `paddr`
  /// on `side`. With Fill::kYes, misses allocate into all levels from the
  /// hit level up (inclusive fill). With Fill::kNo the hierarchy is left
  /// exactly as found: no fill, and no replacement-recency update at any
  /// level, the hit level included (§IV-A). `count_stats=false` keeps the
  /// lookup out of hit/miss statistics (page-walker traffic).
  AccessOutcome timed_access(Addr paddr, Side side, Fill fill,
                             bool count_stats = true);

  /// Commits a line into the hierarchy at every level (inclusive), as
  /// when a SafeSpec shadow entry is promoted on instruction commit. The
  /// `side` chooses which L1 the line lands in.
  void fill_all_levels(Addr line, Side side);

  /// clflush: removes the line from every level (and, at the shared
  /// levels, from every other attached core's L1s).
  void flush_line(Addr line);

  /// True when the line is resident in the L1 of `side` (tests and the
  /// timing-free assertions in the attack harness).
  bool resident_l1(Addr line, Side side) const;
  bool resident_l2(Addr line) const { return shared_->l2().probe(line); }
  bool resident_l3(Addr line) const { return shared_->l3().probe(line); }

  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }
  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }

  SharedLevels& shared() { return *shared_; }
  const SharedLevels& shared() const { return *shared_; }

  /// The core id stamped on this hierarchy's shared-level requests.
  int owner() const { return owner_; }

  const HierarchyConfig& config() const { return config_; }

 private:
  friend class SharedLevels;  // back_invalidate_l1s touches l1i_/l1d_

  Cache& l1_for(Side side) { return side == Side::kInstr ? l1i_ : l1d_; }

  HierarchyConfig config_;
  Cache l1i_;
  Cache l1d_;
  SharedLevels* shared_;
  int owner_;
};

}  // namespace safespec::memory
