// Translation lookaside buffer (tag-only, like the caches). The paper's
// Skylake-like configuration uses 64-entry iTLB and dTLB (Table I); we
// model them as set-associative structures over virtual page numbers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "memory/set_assoc.h"

namespace safespec::memory {

struct TlbConfig {
  std::string name = "TLB";
  int entries = 64;
  int ways = 4;  ///< set-associative, LRU; entries/ways sets

  int num_sets() const { return entries / ways; }
};

/// Cached translation.
struct TlbEntry {
  Addr vpage = 0;
  Addr ppage = 0;
  bool kernel_only = false;
};

/// Set-associative TLB keyed by virtual page number.
class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  /// Lookup with replacement update and stats. nullopt on miss.
  std::optional<TlbEntry> access(Addr vpage);

  /// Side-effect-free lookup (tests / attack assertions).
  bool probe(Addr vpage) const;

  /// Installs a translation, evicting if the set is full. Returns the
  /// evicted entry's vpage when an eviction happened.
  std::optional<Addr> fill(const TlbEntry& entry);

  bool invalidate(Addr vpage);
  void flush_all();

  std::size_t occupancy() const;
  const TlbConfig& config() const { return config_; }
  HitMiss& stats() { return stats_; }
  const HitMiss& stats() const { return stats_; }

 private:
  TlbConfig config_;
  SetAssoc store_;  ///< tags are vpages
  std::vector<TlbEntry> entries_;  ///< per slot; valid where tagged
  /// Stamp clock, advanced only at stamp-writing events (see Cache).
  std::uint64_t tick_ = 0;
  HitMiss stats_;
};

}  // namespace safespec::memory
