#include "memory/cache.h"

#include <stdexcept>

namespace safespec::memory {

namespace {
int checked_sets(const CacheConfig& config) {
  if (config.ways <= 0 || config.num_sets() <= 0) {
    throw std::invalid_argument("Cache: size/ways/line geometry invalid");
  }
  if (config.size_bytes %
          (static_cast<std::uint64_t>(config.ways) * kLineSize) !=
      0) {
    throw std::invalid_argument("Cache: size not divisible by way size");
  }
  return config.num_sets();
}
}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config),
      store_(checked_sets(config), config.ways, /*owners=*/true,
             /*forced_draws=*/config.protection == CacheProtection::kSharp,
             config.seed) {}

bool Cache::access(Addr line, bool update_replacement, bool count_stats) {
  const std::size_t slot = store_.find(line);
  if (slot != SetAssoc::kNone) {
    if (update_replacement) store_.touch(slot, ++tick_);
    if (count_stats) stats_.hits.add();
    return true;
  }
  if (count_stats) stats_.misses.add();
  return false;
}

bool Cache::probe(Addr line) const {
  return store_.find(line) != SetAssoc::kNone;
}

int Cache::owner_of(Addr line) const {
  const std::size_t slot = store_.find(line);
  return slot == SetAssoc::kNone ? -1 : store_.owner(slot);
}

std::optional<Addr> Cache::fill(Addr line, int owner) {
  ++tick_;
  const int set = store_.set_of(line);
  // Already present (refresh recency, no eviction) or a free way.
  std::size_t slot = store_.resident_or_empty(set, line);
  std::optional<Addr> evicted;
  if (slot == SetAssoc::kNone) {
    // Evict. Under kSharp the victim prefers requester-owned ways and a
    // forced cross-owner eviction raises an alarm; kDetectOnly keeps the
    // owner-blind choice (timing identical to kNone) but alarms on every
    // cross-owner eviction it observes.
    VictimChoice choice;
    if (config_.protection == CacheProtection::kSharp) {
      choice = store_.protected_victim(set, owner);
    } else {
      choice.slot = store_.victim(set);
    }
    slot = choice.slot;
    if (store_.owner(slot) != owner) {
      ++cross_owner_evictions_;
      if (config_.protection == CacheProtection::kDetectOnly) record_alarm();
    }
    if (choice.forced) record_alarm();
    evicted = store_.tag(slot);
  }
  store_.fill(slot, line, tick_, owner);
  return evicted;
}

void Cache::record_alarm() {
  ++sharp_alarms_;
  if (tick_ - epoch_start_tick_ >= config_.alarm_epoch_ticks) {
    epoch_start_tick_ = tick_;
    epoch_alarms_ = 0;
  }
  if (++epoch_alarms_ == config_.alarm_threshold) ++sharp_detections_;
}

bool Cache::invalidate(Addr line) {
  const std::size_t slot = store_.find(line);
  if (slot == SetAssoc::kNone) return false;
  store_.erase(slot);
  return true;
}

void Cache::flush_all() { store_.clear(); }

std::size_t Cache::occupancy() const { return store_.occupancy(); }

}  // namespace safespec::memory
