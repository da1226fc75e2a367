#include "memory/cache_hierarchy.h"

#include <algorithm>

namespace safespec::memory {

// ---- SharedLevels ----------------------------------------------------------

SharedLevels::SharedLevels(const HierarchyConfig& config)
    : l2_(config.l2), l3_(config.l3),
      memory_latency_(config.memory_latency) {}

void SharedLevels::detach(CacheHierarchy* h) {
  attached_.erase(std::remove(attached_.begin(), attached_.end(), h),
                  attached_.end());
}

void SharedLevels::back_invalidate_l1s(Addr line) {
  for (CacheHierarchy* h : attached_) {
    h->l1i_.invalidate(line);
    h->l1d_.invalidate(line);
  }
}

AccessOutcome SharedLevels::access_below_l1(Addr line, bool fill,
                                            bool count_stats, int owner) {
  if (l2_.access(line, fill, count_stats)) {
    return {l2_.config().hit_latency, HitLevel::kL2};
  }
  if (l3_.access(line, fill, count_stats)) {
    // Historical L3-hit path: the L2 fill's eviction is not
    // back-invalidated (the line stays in whatever L1s hold it).
    if (fill) l2_.fill(line, owner);
    return {l3_.config().hit_latency, HitLevel::kL3};
  }
  if (fill) fill_shared(line, owner);
  return {memory_latency_, HitLevel::kMemory};
}

void SharedLevels::fill_shared(Addr line, int owner) {
  // Inclusive hierarchy: insert bottom-up; an L3/L2 eviction
  // back-invalidates the levels above it — in *every* attached core.
  if (const Addr evicted = l3_.fill(line, owner);
      evicted != Cache::kNoEviction) {
    l2_.invalidate(evicted);
    back_invalidate_l1s(evicted);
  }
  if (const Addr evicted = l2_.fill(line, owner);
      evicted != Cache::kNoEviction) {
    back_invalidate_l1s(evicted);
  }
}

void SharedLevels::flush_line(Addr line) {
  back_invalidate_l1s(line);
  l2_.invalidate(line);
  l3_.invalidate(line);
}

// ---- CacheHierarchy --------------------------------------------------------

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config,
                               SharedLevels& shared, int owner)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      shared_(&shared),
      owner_(owner) {
  shared_->attach(this);
}

CacheHierarchy::~CacheHierarchy() { shared_->detach(this); }

AccessOutcome CacheHierarchy::timed_access(Addr paddr, Side side, Fill fill,
                                           bool count_stats) {
  const Addr line = line_of(paddr);
  Cache& l1 = l1_for(side);
  // Fill::kNo is the speculative path: leakage-freedom forbids even
  // replacement-recency updates, at every level (§IV-A).
  const bool filling = fill == Fill::kYes;

  if (l1.access(line, filling, count_stats)) {
    return {l1.config().hit_latency, HitLevel::kL1};
  }
  const AccessOutcome below =
      shared_->access_below_l1(line, filling, count_stats, owner_);
  if (filling) l1.fill(line, owner_);
  return below;
}

void CacheHierarchy::fill_all_levels(Addr line, Side side) {
  shared_->fill_shared(line, owner_);
  l1_for(side).fill(line, owner_);
}

void CacheHierarchy::flush_line(Addr line) {
  // flush_line at the shared levels already back-invalidates every
  // attached core's L1s, including ours.
  shared_->flush_line(line);
}

bool CacheHierarchy::resident_l1(Addr line, Side side) const {
  return (side == Side::kInstr ? l1i_ : l1d_).probe(line);
}

}  // namespace safespec::memory
