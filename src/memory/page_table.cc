#include "memory/page_table.h"

namespace safespec::memory {

void PageTable::map(Addr vpage, Addr ppage, bool kernel_only) {
  table_[vpage] = Translation{ppage, kernel_only, /*present=*/true};
}

Translation PageTable::translate(Addr vpage) const {
  const Translation* xlat = table_.find(vpage);
  return xlat == nullptr ? Translation{} : *xlat;
}

namespace {
// splitmix64 finalizer: scatters synthetic page-table pages across the
// reserved region the way real table pages scatter across physical
// memory (a naive power-of-two layout would alias every walk line into
// one cache set, which both wrecks timing and is unphysical).
Addr mix(Addr x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

void PageTable::walk_addresses(Addr vpage, Addr out[kWalkLevels]) const {
  // x86-64-style radix walk: level L's table is selected by the vpage
  // bits above level L (so all pages share the root table, nearby pages
  // share lower tables — real walker locality), and the entry within the
  // table by the next 9 bits. Table pages live in a reserved "page-table
  // heap" region disjoint from workload data.
  constexpr Addr kPageTableBase = 0xFFFF'0000'0000ULL;
  constexpr Addr kHeapPages = 1ULL << 20;
  for (int level = 0; level < kWalkLevels; ++level) {
    const int shift = 9 * (kWalkLevels - level);
    const Addr table_path = shift >= 64 ? 0 : (vpage >> shift);
    const Addr index = (vpage >> (9 * (kWalkLevels - 1 - level))) & 0x1FF;
    const Addr table_page =
        mix(table_path * kWalkLevels + static_cast<Addr>(level)) % kHeapPages;
    out[level] = kPageTableBase + table_page * kPageSize + index * 8;
  }
}

std::vector<Addr> PageTable::walk_addresses(Addr vpage) const {
  Addr lines[kWalkLevels];
  walk_addresses(vpage, lines);
  return std::vector<Addr>(lines, lines + kWalkLevels);
}

void map_image(const std::vector<Region>& regions,
               const std::vector<Poke>& pokes, MainMemory& mem,
               PageTable& page_table) {
  for (const Region& region : regions) {
    const Addr first = page_of(region.base);
    const Addr last =
        page_of(region.base + (region.bytes == 0 ? 0 : region.bytes - 1));
    for (Addr page = first; page <= last; ++page) {
      page_table.map_identity(page, region.perm == PagePerm::kKernel);
    }
  }
  for (const Poke& poke : pokes) mem.write64(poke.addr, poke.value);
}

}  // namespace safespec::memory
