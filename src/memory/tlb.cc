#include "memory/tlb.h"

#include <stdexcept>

namespace safespec::memory {

namespace {
int checked_sets(const TlbConfig& config) {
  if (config.entries <= 0 || config.ways <= 0 ||
      config.entries % config.ways != 0) {
    throw std::invalid_argument("Tlb: entries must divide evenly into ways");
  }
  return config.num_sets();
}
}  // namespace

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      store_(checked_sets(config), config.ways, /*owners=*/false),
      entries_(static_cast<std::size_t>(config.entries)) {}

std::optional<TlbEntry> Tlb::access(Addr vpage) {
  const std::size_t slot = store_.find(vpage);
  if (slot != SetAssoc::kNone) {
    store_.touch(slot, ++tick_);
    stats_.hits.add();
    return entries_[slot];
  }
  stats_.misses.add();
  return std::nullopt;
}

bool Tlb::probe(Addr vpage) const {
  return store_.find(vpage) != SetAssoc::kNone;
}

std::optional<Addr> Tlb::fill(const TlbEntry& entry) {
  ++tick_;
  const int set = store_.set_of(entry.vpage);
  std::size_t slot = store_.resident_or_empty(set, entry.vpage);
  std::optional<Addr> evicted;
  if (slot == SetAssoc::kNone) {
    slot = store_.victim(set);
    evicted = store_.tag(slot);
  }
  store_.fill(slot, entry.vpage, tick_);
  entries_[slot] = entry;
  return evicted;
}

bool Tlb::invalidate(Addr vpage) {
  const std::size_t slot = store_.find(vpage);
  if (slot == SetAssoc::kNone) return false;
  store_.erase(slot);
  return true;
}

void Tlb::flush_all() { store_.clear(); }

std::size_t Tlb::occupancy() const { return store_.occupancy(); }

}  // namespace safespec::memory
