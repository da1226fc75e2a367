// Architectural backing store: memory contents.
//
// This is the substrate the paper gets "for free" from QEMU inside
// MARSSx86. We model exactly what the attacks require: real data at
// addresses (a speculatively loaded secret has a value). Which pages are
// mapped, and whether user code may touch them (the check *deferred* to
// commit, property P1 exploited by Meltdown), is the page table's record
// (memory/page_table.h), not this store's.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/paged_addr_map.h"
#include "common/types.h"

namespace safespec::memory {

/// Access privilege required to *architecturally* read/write a region's
/// pages (the page table records it per page as `kernel_only`).
enum class PagePerm : std::uint8_t {
  kUser,    ///< accessible from user and kernel mode
  kKernel,  ///< kernel-only; user access faults at commit time
};

/// Privilege level the core currently runs at.
enum class PrivLevel : std::uint8_t { kUser, kKernel };

/// One 64-bit word written before a run: a machine's poke, a workload's
/// init word, a trace's init-word record.
struct Poke {
  Addr addr = 0;
  std::uint64_t value = 0;
};

/// One mapped address-space region: a machine's memory-map entry, a
/// workload's data region, a trace's region record.
struct Region {
  Addr base = 0;
  std::uint64_t bytes = 0;
  PagePerm perm = PagePerm::kUser;
};

/// Sparse 64-bit-word-granular physical memory.
///
/// Addresses given to read/write are byte addresses; storage is at 8-byte
/// granularity with unaligned accesses rounded down (the micro-ISA only
/// performs aligned 64-bit accesses, which the workload generators and
/// attack PoCs respect).
class MainMemory {
 public:
  /// Reads the 64-bit word containing byte address `addr`. Unwritten
  /// words read as zero (like zero-fill-on-demand).
  std::uint64_t read64(Addr addr) const;

  /// Writes the 64-bit word containing byte address `addr`.
  void write64(Addr addr, std::uint64_t value);

  /// Canonical architectural snapshot: every word holding a nonzero
  /// value, as (byte address, value) pairs sorted by address. Zero-valued
  /// words are skipped because an explicitly written zero is
  /// indistinguishable from untouched zero-fill memory — exactly the
  /// equivalence the differential harness needs when comparing final
  /// memory images across machines.
  std::vector<std::pair<Addr, std::uint64_t>> nonzero_words() const;

 private:
  static Addr word_of(Addr addr) { return addr >> 3; }

  // Paged backing array: workload data is dense, so the per-load/store
  // lookup is a direct index in the common case.
  PagedAddrMap<std::uint64_t> words_;  // keyed by word index
};

}  // namespace safespec::memory
