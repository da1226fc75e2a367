// Page table and hardware page-table walker.
//
// Translation is identity-mapped by default (vpage == ppage) but fully
// programmable, with per-page permissions mirrored from MainMemory. The
// walker models the x86-64 4-level radix walk: each level is one memory
// access *through the data-cache hierarchy* at a synthetic page-table
// address. That detail matters for SafeSpec: the paper notes (§IV-A) that
// because the page walker uses the load/store path, the d-cache shadow
// protection also covers the walker's side effects — which our core
// reproduces by routing walker accesses through the same speculative-fill
// policy as ordinary loads.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/paged_addr_map.h"
#include "common/types.h"
#include "memory/main_memory.h"

namespace safespec::memory {

/// A translation result: where the page lives and whether user-mode code
/// may architecturally touch it. `present == false` means unmapped.
struct Translation {
  Addr ppage = 0;
  bool kernel_only = false;
  bool present = false;
};

/// Software-visible page table plus a timing model for walks.
class PageTable {
 public:
  /// Number of radix levels in a walk (x86-64 style).
  static constexpr int kWalkLevels = 4;

  /// Maps `vpage` -> `ppage` with the given privilege requirement.
  void map(Addr vpage, Addr ppage, bool kernel_only);

  /// Identity-maps `vpage` (ppage == vpage).
  void map_identity(Addr vpage, bool kernel_only) {
    map(vpage, vpage, kernel_only);
  }

  /// Translates a virtual page. present=false when unmapped.
  Translation translate(Addr vpage) const;

  /// The four synthetic physical line addresses a walk of `vpage`
  /// touches, one per radix level. The walker issues these through the
  /// d-cache path; tests use them to assert walker side effects land (or
  /// don't) in the caches.
  std::vector<Addr> walk_addresses(Addr vpage) const;

  /// Allocation-free variant for the core's per-walk hot path: fills
  /// `out[kWalkLevels]` with the same addresses, in the same order.
  void walk_addresses(Addr vpage, Addr out[kWalkLevels]) const;

  std::size_t mapped_pages() const { return table_.size(); }

 private:
  // PagedAddrMap, not the hash-based AddrMap: translate() sits on the
  // TLB-miss path of both the detailed walker and the functional engine,
  // and vpages are small dense keys — the direct page directory turns
  // each lookup into two array indexings.
  PagedAddrMap<Translation> table_;
};

/// Sets up a program image's address space: every page of every region
/// gets the region's permission in `mem` and an identity translation in
/// `page_table` (a zero-byte region maps its base page), then the pokes
/// are written in order. The one mapping loop behind MachineBuilder,
/// Simulator::map_region_on and the differential oracle.
void map_image(const std::vector<Region>& regions,
               const std::vector<Poke>& pokes, MainMemory& mem,
               PageTable& page_table);

}  // namespace safespec::memory
