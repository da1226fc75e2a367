// Tag and replacement storage shared by every set-associative level
// (caches and TLBs). A level is a few flat arrays indexed
// `set * ways + way` — tags, replacement stamps and, for caches, owner
// ids — plus one Rng per set only where SHARP's forced victim draw can
// happen, so building a level costs a fixed few allocations whatever its
// set count. Replacement is LRU, what the paper's model uses.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace safespec::memory {

/// Cache-level protection applied at victim selection, on top of LRU
/// (set via CacheConfig::protection, chosen by the ProtectionPolicy in
/// the registry).
enum class CacheProtection : std::uint8_t {
  kNone,        ///< historical behaviour: owner-blind victim choice
  kSharp,       ///< SHARP: prefer requester-owned ways, alarm when forced
  kDetectOnly,  ///< victim choice unchanged; cross-owner evictions alarm
};

/// Outcome of a protected victim choice (see protected_victim()).
struct VictimChoice {
  std::size_t slot = 0;
  bool forced = false;  ///< no requester-owned way existed (SHARP alarm)
};

/// The ways of one set-associative level. A slot (`set * ways + way`)
/// holds a tag, kEmpty when the way is free, and a 64-bit stamp: its
/// last fill or touch time. The owner supplies a monotonically
/// increasing `tick`. Ties on equal stamps resolve to the lowest way;
/// SHARP's forced pick draws from the set's own Rng, seeded `seed + set`.
///
/// With `owners`, each slot also records the requesting context that
/// filled it (core id at the shared L2/L3, 0 for private levels). A hit
/// does not transfer ownership. victim() never lets the owner influence
/// the choice — that is what keeps cores=1 bit-identical to the
/// historical behaviour — but protected_victim() (SHARP's "never evict
/// another context's line") and the cross-owner attribution counters
/// read it.
class SetAssoc {
 public:
  /// Tag of a free way. No key reaches it: lines and page numbers are
  /// byte addresses shifted right.
  static constexpr Addr kEmpty = ~Addr{0};
  /// "No slot": find() on a miss, resident_or_empty() on a full set.
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// Owner ids are core ids, which MachineSpec::validate caps at 64.
  static constexpr int kMaxOwners = 64;

  /// `forced_draws` gives every set an Rng, seeded `seed + set`, for
  /// SHARP's forced pick.
  SetAssoc(int sets, int ways, bool owners, bool forced_draws = false,
           std::uint64_t seed = 0)
      : sets_(sets), ways_(ways),
        pow2_((sets & (sets - 1)) == 0),
        tags_(static_cast<std::size_t>(sets) * ways, kEmpty),
        stamps_(tags_.size(), 0),
        owners_(owners ? tags_.size() : 0, 0) {
    if (forced_draws) {
      rngs_.reserve(static_cast<std::size_t>(sets));
      for (int s = 0; s < sets; ++s) {
        rngs_.emplace_back(seed + static_cast<std::uint64_t>(s));
      }
    }
  }

  /// Set `key` maps to: key % sets, a mask when sets is a power of two.
  int set_of(Addr key) const {
    const auto sets = static_cast<Addr>(sets_);
    return static_cast<int>(pow2_ ? key & (sets - 1) : key % sets);
  }

  /// Slot holding `key`, or kNone.
  std::size_t find(Addr key) const {
    const std::size_t base = first_slot(set_of(key));
    for (std::size_t s = base; s < base + ways_; ++s) {
      if (tags_[s] == key) return s;
    }
    return kNone;
  }

  /// Where a fill of `key` into `set` lands without evicting: the slot
  /// already holding it, else the set's first free way, else kNone. One
  /// pass, as the SHARP pintool's lookup.
  std::size_t resident_or_empty(int set, Addr key) const {
    const std::size_t base = first_slot(set);
    std::size_t free = kNone;
    for (std::size_t s = base; s < base + ways_; ++s) {
      if (tags_[s] == key) return s;
      if (free == kNone && tags_[s] == kEmpty) free = s;
    }
    return free;
  }

  /// Notes a hit on `slot` at time `tick`: refreshes its recency.
  void touch(std::size_t slot, std::uint64_t tick) { stamps_[slot] = tick; }

  /// Puts `key` in `slot` (its resident, a free or a victim way) at time
  /// `tick`, owned by `owner`.
  void fill(std::size_t slot, Addr key, std::uint64_t tick, int owner = 0) {
    assert(key != kEmpty);
    assert(owner >= 0 && owner < kMaxOwners);
    tags_[slot] = key;
    stamps_[slot] = tick;
    if (!owners_.empty()) owners_[slot] = static_cast<std::uint8_t>(owner);
    assert(copies_in_set(slot / ways_, key) == 1);
  }

  void erase(std::size_t slot) { tags_[slot] = kEmpty; }
  void clear() { std::fill(tags_.begin(), tags_.end(), kEmpty); }

  Addr tag(std::size_t slot) const { return tags_[slot]; }
  /// The context that filled `slot` (levels that keep owners only).
  int owner(std::size_t slot) const { return owners_[slot]; }

  /// Number of occupied ways.
  std::size_t occupancy() const {
    return tags_.size() - static_cast<std::size_t>(
                              std::count(tags_.begin(), tags_.end(), kEmpty));
  }

  /// Victim slot for a fill into `set`. Only called when every way of
  /// the set is occupied — callers take free ways first. Owner-blind:
  /// the least recently used way.
  std::size_t victim(int set) const {
    const std::size_t base = first_slot(set);
    std::size_t best = base;
    for (std::size_t s = base + 1; s < base + ways_; ++s) {
      if (stamps_[s] < stamps_[best]) best = s;
    }
    return best;
  }

  /// SHARP-style victim for a fill into a full `set` by `owner`: ways
  /// owned by other contexts are skipped and LRU picks among the
  /// requester's own lines (SHARP's tier-1 "unowned" and tier-2
  /// "requester-owned" preferences collapse to one rule here because
  /// every resident way records the context that filled it). When the
  /// requester owns nothing in the set the choice is *forced*: a
  /// uniformly random way is evicted and the caller raises an alarm
  /// (tier 3). When every way belongs to the requester — always the case
  /// at cores=1 — the result is bit-identical to victim().
  VictimChoice protected_victim(int set, int owner) {
    const std::size_t base = first_slot(set);
    // The smallest stamp among the requester's ways, lowest way on ties —
    // victim()'s rule over all ways.
    std::size_t best = kNone;
    for (std::size_t s = base; s < base + ways_; ++s) {
      if (owners_[s] != owner) continue;
      if (best == kNone || stamps_[s] < stamps_[best]) best = s;
    }
    if (best == kNone) {
      return {base + rngs_[set].below(static_cast<std::uint64_t>(ways_)),
              true};
    }
    return {best, false};
  }

 private:
  std::size_t first_slot(int set) const {
    return static_cast<std::size_t>(set) * ways_;
  }

  /// Ways of `set` tagged `key` (the Debug fill invariant: exactly one).
  int copies_in_set(std::size_t set, Addr key) const {
    const auto first = tags_.begin() + set * ways_;
    return static_cast<int>(std::count(first, first + ways_, key));
  }

  int sets_;
  int ways_;
  bool pow2_;
  std::vector<Addr> tags_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint8_t> owners_;  ///< filling context per slot
  std::vector<Rng> rngs_;             ///< per set; forced draws only
};

}  // namespace safespec::memory
