// Paged backing array with a hash-map overflow, for the simulator's
// hottest per-access lookups (memory words, page permissions, program
// text). AddrMap already beats std::unordered_map, but it still pays a
// hash mix and a probe per lookup. The address streams these tables serve
// are overwhelmingly *dense* — a workload's data region, a program's
// text — so a page directory indexed directly by the key's high bits
// turns the common lookup into shift / bounds-check / load. Keys past the
// directory's reach (sparse, huge — e.g. synthetic high addresses) fall
// back to an AddrMap so correctness never depends on density.
//
// Copies are copy-on-write: each core of a machine runs over a copy of
// core 0's memory image, page table and program text, and shares every
// page of it that it never writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/addr_map.h"
#include "common/types.h"

namespace safespec {

/// Insert/lookup-only map keyed by Addr (no per-key erase; clear() drops
/// everything — the same contract as AddrMap). Values must be
/// default-constructible and copyable. Iteration order is unspecified.
///
/// Copy-on-write contract: a copy shares the source's pages (the overflow
/// map is copied whole), and each copy still behaves as an independent
/// value. operator[] is the only accessor that writes: before it writes
/// a page that another copy still holds, it clones that page. The
/// reference it returns is for writing at once, before the map is copied
/// again. A find() pointer is read-only and stays valid while any copy
/// holds its page; the core's decoded-instruction buffer keeps
/// Instruction pointers into shared text pages on that basis. After this
/// map writes the page, look the key up again. Page refcounts are
/// atomic, so copies may be read on several threads at once; two threads
/// must not write copies that share a page without synchronising.
template <typename V>
class PagedAddrMap {
 public:
  std::size_t size() const { return direct_size_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

  bool contains(Addr key) const { return find(key) != nullptr; }

  const V* find(Addr key) const {
    const Addr page = key >> kPageBits;
    if (page < dir_.size()) {
      const Page* p = dir_[page].get();
      if (p == nullptr) return nullptr;
      const std::size_t off = key & kPageMask;
      return p->is_present(off) ? &p->values[off] : nullptr;
    }
    if (page < kMaxDirectPages) return nullptr;  // direct range, never set
    return overflow_.find(key);
  }

  /// Value for `key`, default-constructed and inserted when absent.
  V& operator[](Addr key) {
    const Addr page = key >> kPageBits;
    if (page >= kMaxDirectPages) return overflow_[key];
    if (page >= dir_.size()) dir_.resize(page + 1);
    std::shared_ptr<Page>& slot = dir_[page];
    if (slot == nullptr) {
      slot = std::make_shared<Page>();
    } else if (slot.use_count() > 1) {
      slot = std::make_shared<Page>(*slot);  // another copy holds it
    }
    Page& p = *slot;
    const std::size_t off = key & kPageMask;
    if (!p.is_present(off)) {
      p.present[off >> 6] |= 1ULL << (off & 63);
      ++direct_size_;
    }
    return p.values[off];
  }

  void clear() {
    dir_.clear();
    overflow_.clear();
    direct_size_ = 0;
  }

  /// Calls fn(key, const V&) for every element, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t page = 0; page < dir_.size(); ++page) {
      const Page* p = dir_[page].get();
      if (p == nullptr) continue;
      for (std::size_t off = 0; off < kPageEntries; ++off) {
        if (p->is_present(off)) {
          fn((static_cast<Addr>(page) << kPageBits) | off, p->values[off]);
        }
      }
    }
    overflow_.for_each(fn);
  }

 private:
  /// 4096 entries per page: one 64-bit-word page spans 32 KiB of data, a
  /// text page spans 16 KiB of instructions — a handful of slabs covers
  /// any workload region while a stray far-away key costs one slab.
  static constexpr int kPageBits = 12;
  static constexpr std::size_t kPageEntries = std::size_t{1} << kPageBits;
  static constexpr Addr kPageMask = kPageEntries - 1;
  /// Directory reach: 2^20 pages (a 16 MiB pointer directory at worst)
  /// covers keys below 2^32; anything higher goes to the overflow map.
  static constexpr Addr kMaxDirectPages = Addr{1} << 20;

  struct Page {
    V values[kPageEntries]{};
    std::uint64_t present[kPageEntries / 64]{};
    bool is_present(std::size_t off) const {
      return (present[off >> 6] >> (off & 63)) & 1;
    }
  };

  std::vector<std::shared_ptr<Page>> dir_;
  AddrMap<V> overflow_;
  std::size_t direct_size_ = 0;
};

}  // namespace safespec
