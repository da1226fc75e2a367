// Unit and property tests for the common utilities: deterministic RNG,
// counters, histograms/percentiles, the geometric mean, the paged address
// map and the pipeline ring buffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <iterator>
#include <utility>
#include <vector>

#include "common/addr_map.h"
#include "common/paged_addr_map.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/stats.h"

namespace safespec {
namespace {

// ---- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(RngTest, BelowOneAlwaysZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowIsUnbiased) {
  // Lemire rejection: every residue equally likely. The old modulo
  // reduction skewed small values; with bound 3 over 30000 draws each
  // bucket must sit near 10000 (±5 sigma ≈ ±410).
  Rng rng(12);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 30000; ++i) counts[rng.below(3)]++;
  for (int c : counts) EXPECT_NEAR(c, 10000, 450);
}

TEST(RngTest, BelowHandlesHugeBounds) {
  // Bounds just above 2^63 are where modulo bias was worst (a factor-2
  // skew); rejection must still respect the bound and terminate.
  Rng rng(13);
  const std::uint64_t bound = (1ULL << 63) + 12345;
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(10);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(5);
  const auto first = rng.next();
  rng.next();
  rng.reseed(5);
  EXPECT_EQ(rng.next(), first);
}

// ---- Counter / HitMiss ----------------------------------------------------------

TEST(CounterTest, AddAndReset) {
  Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HitMissTest, Rates) {
  HitMiss hm;
  hm.hits.add(3);
  hm.misses.add(1);
  EXPECT_DOUBLE_EQ(hm.hit_rate(), 0.75);
  EXPECT_DOUBLE_EQ(hm.miss_rate(), 0.25);
  EXPECT_EQ(hm.accesses(), 4u);
}

TEST(HitMissTest, EmptyIsZeroNotNan) {
  HitMiss hm;
  EXPECT_DOUBLE_EQ(hm.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(hm.miss_rate(), 0.0);
}

// ---- Histogram -------------------------------------------------------------------

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(HistogramTest, PercentileEdges) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(50);
  EXPECT_EQ(h.percentile(0.5), 1u);
  EXPECT_EQ(h.percentile(0.99), 1u);
  EXPECT_EQ(h.percentile(1.0), 50u);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.9999), 0u);
}

TEST(HistogramTest, P9999ReachesIntoTheTail) {
  Histogram h;
  // 9998 zeros + 2 sevens: zero covers only 99.98% of samples, so the
  // 99.99th percentile must report the tail value.
  for (int i = 0; i < 9998; ++i) h.record(0);
  h.record(7);
  h.record(7);
  EXPECT_EQ(h.percentile(0.9999), 7u);
  // With 9999 zeros + 1 seven, zero covers exactly 99.99%.
  Histogram h2;
  for (int i = 0; i < 9999; ++i) h2.record(0);
  h2.record(7);
  EXPECT_EQ(h2.percentile(0.9999), 0u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, ResetDropsPendingRun) {
  Histogram h;
  h.record_run(5);
  h.record_run(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  h.record_run(1);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 1u);
}

TEST(HistogramProperty, RecordRunMatchesRecord) {
  // record_run is the occupancy-sampling fast path; any interleaving of
  // record/record_run must produce statistics identical to plain record.
  Histogram batched, plain;
  Rng rng(2024);
  std::uint64_t value = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mostly repeat the previous sample (realistic occupancy runs),
    // sometimes jump, sometimes go through the unbatched entry point.
    if (rng.below(8) == 0) value = rng.below(64);
    if (rng.below(50) == 0) {
      batched.record(value);
    } else {
      batched.record_run(value);
    }
    plain.record(value);
    if (i % 1000 == 0) {
      // Mid-stream reads must flush the pending run, not lose it.
      EXPECT_EQ(batched.count(), plain.count());
    }
  }
  EXPECT_EQ(batched.count(), plain.count());
  EXPECT_EQ(batched.max(), plain.max());
  EXPECT_DOUBLE_EQ(batched.mean(), plain.mean());
  for (double f : {0.1, 0.5, 0.9, 0.99, 0.9999, 1.0}) {
    EXPECT_EQ(batched.percentile(f), plain.percentile(f)) << "fraction " << f;
  }
}

TEST(HistogramTest, RecordRunOfNEqualsNSingleRecordRuns) {
  // record_run(s, n) is how skipped idle cycles land in the occupancy
  // histograms; it must equal n record_run(s) calls — n = 0 records
  // nothing, and a call with the pending run's value extends that run.
  const std::pair<std::uint64_t, std::uint64_t> runs[] = {
      {3, 5}, {3, 0}, {3, 2}, {7, 0}, {7, 1}, {0, 4}, {7, 3}, {7, 1000}};
  Histogram batched, single;
  for (const auto& [sample, n] : runs) {
    batched.record_run(sample, n);
    for (std::uint64_t i = 0; i < n; ++i) single.record_run(sample);
  }
  EXPECT_EQ(batched.count(), single.count());
  EXPECT_EQ(batched.max(), single.max());
  EXPECT_DOUBLE_EQ(batched.mean(), single.mean());
  EXPECT_EQ(batched.percentile(0.5), single.percentile(0.5));
  EXPECT_EQ(batched.percentile(0.9999), single.percentile(0.9999));
  EXPECT_EQ(batched.count(), 1015u);

  Histogram empty;
  empty.record_run(9, 0);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.max(), 0u);
}

TEST(HistogramProperty, PercentileMonotoneInFraction) {
  Histogram h;
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) h.record(rng.below(100));
  std::uint64_t prev = 0;
  for (double f : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999, 1.0}) {
    const auto p = h.percentile(f);
    EXPECT_GE(p, prev) << "fraction " << f;
    prev = p;
  }
}

// ---- geometric_mean ---------------------------------------------------------------

TEST(GeoMeanTest, KnownValue) {
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(GeoMeanTest, EmptyIsZero) { EXPECT_EQ(geometric_mean({}), 0.0); }

TEST(GeoMeanTest, InvariantUnderPermutation) {
  EXPECT_NEAR(geometric_mean({1.0, 2.0, 3.0}),
              geometric_mean({3.0, 1.0, 2.0}), 1e-12);
}

TEST(GeoMeanTest, BetweenMinAndMax) {
  Rng rng(3);
  std::vector<double> vs;
  for (int i = 0; i < 50; ++i) vs.push_back(0.5 + rng.uniform());
  const double g = geometric_mean(vs);
  EXPECT_GE(g, *std::min_element(vs.begin(), vs.end()));
  EXPECT_LE(g, *std::max_element(vs.begin(), vs.end()));
}

TEST(PagedAddrMapTest, InsertLookupDense) {
  PagedAddrMap<std::uint64_t> m;
  for (Addr k = 0; k < 10000; ++k) m[k] = k * 3;
  EXPECT_EQ(m.size(), 10000u);
  for (Addr k = 0; k < 10000; ++k) {
    const std::uint64_t* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k * 3);
  }
  EXPECT_EQ(m.find(10000), nullptr);
  EXPECT_FALSE(m.contains(1u << 30));
}

TEST(PagedAddrMapTest, HugeKeysFallBackToOverflow) {
  // Keys past the directory's reach must round-trip through the hash
  // overflow, and coexist with direct-range keys.
  PagedAddrMap<std::uint64_t> m;
  const Addr huge = Addr{1} << 45;
  m[huge] = 42;
  m[huge + 1] = 43;
  m[7] = 1;
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(huge), nullptr);
  EXPECT_EQ(*m.find(huge), 42u);
  EXPECT_EQ(*m.find(huge + 1), 43u);
  EXPECT_EQ(m.find(huge + 2), nullptr);
  EXPECT_EQ(*m.find(7), 1u);
}

/// Checks `paged` against `reference` both ways: find() returns every
/// reference value, and for_each visits exactly the reference's keys.
void expect_same_entries(const PagedAddrMap<std::uint64_t>& paged,
                         const AddrMap<std::uint64_t>& reference) {
  EXPECT_EQ(paged.size(), reference.size());
  reference.for_each([&paged](Addr k, std::uint64_t v) {
    const std::uint64_t* got = paged.find(k);
    ASSERT_NE(got, nullptr) << k;
    EXPECT_EQ(*got, v) << k;
  });
  std::uint64_t seen = 0;
  paged.for_each([&](Addr k, std::uint64_t v) {
    ++seen;
    const std::uint64_t* ref = reference.find(k);
    ASSERT_NE(ref, nullptr) << k;
    EXPECT_EQ(*ref, v) << k;
  });
  EXPECT_EQ(seen, reference.size());
}

TEST(PagedAddrMapProperty, MatchesAddrMapOnRandomStreams) {
  // Differential check against the flat hash map across a mix of dense,
  // page-straddling, and overflow-range keys: `count` keys, the direct
  // ones at or above `low`.
  Rng rng(2026);
  const auto write_keys = [&rng](PagedAddrMap<std::uint64_t>& paged,
                                 AddrMap<std::uint64_t>& reference, Addr low,
                                 std::uint64_t sparse_span, int count) {
    for (int i = 0; i < count; ++i) {
      Addr key;
      switch (rng.below(3)) {
        case 0: key = low + rng.below(1 << 14); break;     // dense
        case 1: key = low + rng.below(sparse_span); break;  // sparse direct
        default: key = (Addr{1} << 40) + rng.below(1000); break;  // overflow
      }
      const std::uint64_t value = rng.next();
      paged[key] = value;
      reference[key] = value;
    }
  };
  PagedAddrMap<std::uint64_t> paged;
  AddrMap<std::uint64_t> reference;
  write_keys(paged, reference, 0, 1u << 31, 20000);
  expect_same_entries(paged, reference);

  // Copies share pages until one side writes: two rounds on a map whose
  // first keys sit high, a copy, then one round on each side. Each
  // round's keys start below the earlier rounds', on pages both hold.
  PagedAddrMap<std::uint64_t> high;
  AddrMap<std::uint64_t> high_reference;
  write_keys(high, high_reference, Addr{3} << 28, 1 << 20, 3000);
  write_keys(high, high_reference, Addr{1} << 28, 1 << 20, 3000);
  expect_same_entries(high, high_reference);
  PagedAddrMap<std::uint64_t> copy = high;
  AddrMap<std::uint64_t> copy_reference = high_reference;
  write_keys(high, high_reference, Addr{1} << 27, 1 << 20, 3000);
  write_keys(copy, copy_reference, 0, 1 << 20, 3000);
  expect_same_entries(high, high_reference);
  expect_same_entries(copy, copy_reference);
}

TEST(PagedAddrMapTest, DeepCopyIsIndependent) {
  PagedAddrMap<int> a;
  a[5] = 50;
  a[Addr{1} << 50] = 51;
  PagedAddrMap<int> b = a;
  b[5] = 99;
  b[6] = 60;
  EXPECT_EQ(*a.find(5), 50);
  EXPECT_EQ(a.find(6), nullptr);
  EXPECT_EQ(*b.find(5), 99);
  EXPECT_EQ(*b.find(Addr{1} << 50), 51);
}

// Copies share pages until one side writes (copy-on-write). Keys 4096
// apart sit on different pages.
TEST(PagedAddrMapTest, WriteToSourceAfterCopyLeavesCopyIntact) {
  PagedAddrMap<int> a;
  a[5] = 50;
  a[4096 + 1] = 60;
  const PagedAddrMap<int> b = a;
  const int* held = b.find(5);
  a[5] = 99;         // a page b still holds
  a[7] = 70;         // a new key on that page
  a[2 * 4096] = 80;  // a page only a has
  EXPECT_EQ(b.find(5), held);  // b's pointer is still valid
  EXPECT_EQ(*held, 50);
  EXPECT_EQ(b.find(7), nullptr);
  EXPECT_EQ(b.find(2 * 4096), nullptr);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(*a.find(5), 99);
  EXPECT_EQ(*a.find(7), 70);
  EXPECT_EQ(*a.find(4096 + 1), 60);
  EXPECT_EQ(a.size(), 4u);
}

TEST(PagedAddrMapTest, CopyOfACopyIsIndependentOfBoth) {
  PagedAddrMap<int> a;
  a[1] = 10;
  PagedAddrMap<int> b = a;
  PagedAddrMap<int> c;
  c[9] = 90;
  c = b;  // copy assignment drops c's own page; three holders of a's
  b[1] = 20;
  c[1] = 30;
  c[2] = 31;
  a[1] = 11;  // a holds its page alone by now
  EXPECT_EQ(*a.find(1), 11);
  EXPECT_EQ(*b.find(1), 20);
  EXPECT_EQ(*c.find(1), 30);
  EXPECT_EQ(a.find(2), nullptr);
  EXPECT_EQ(b.find(2), nullptr);
  EXPECT_EQ(c.find(9), nullptr);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(c.size(), 2u);
}

TEST(PagedAddrMapTest, OverflowKeysWrittenAfterCopyStayOnOneSide) {
  const Addr huge = Addr{1} << 45;  // past the page directory
  PagedAddrMap<int> a;
  a[huge] = 1;
  PagedAddrMap<int> b = a;
  b[huge] = 2;
  b[huge + 1] = 3;
  a[huge + 2] = 4;
  EXPECT_EQ(*a.find(huge), 1);
  EXPECT_EQ(a.find(huge + 1), nullptr);
  EXPECT_EQ(*a.find(huge + 2), 4);
  EXPECT_EQ(*b.find(huge), 2);
  EXPECT_EQ(*b.find(huge + 1), 3);
  EXPECT_EQ(b.find(huge + 2), nullptr);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(PagedAddrMapTest, ClearOnOneCopyLeavesTheOther) {
  PagedAddrMap<int> a;
  a[3] = 30;
  a[Addr{1} << 40] = 31;
  PagedAddrMap<int> b = a;
  const int* held = b.find(3);
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.find(3), nullptr);
  EXPECT_EQ(a.find(Addr{1} << 40), nullptr);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.find(3), held);  // b still holds the page
  EXPECT_EQ(*held, 30);
  EXPECT_EQ(*b.find(Addr{1} << 40), 31);
  a[3] = 1;
  b.clear();
  EXPECT_EQ(*a.find(3), 1);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(PagedAddrMapTest, ClearDropsEverything) {
  PagedAddrMap<int> m;
  m[1] = 1;
  m[Addr{1} << 40] = 2;
  EXPECT_EQ(m.size(), 2u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.find(Addr{1} << 40), nullptr);
}

// ---- RingBuffer ---------------------------------------------------------------

TEST(RingBufferTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(RingBuffer<int>(0).capacity(), 1u);
  EXPECT_EQ(RingBuffer<int>(1).capacity(), 1u);
  EXPECT_EQ(RingBuffer<int>(5).capacity(), 8u);
  EXPECT_EQ(RingBuffer<int>(8).capacity(), 8u);
  EXPECT_EQ(RingBuffer<int>(56).capacity(), 64u);   // Table I STQ
  EXPECT_EQ(RingBuffer<int>(224).capacity(), 256u);  // Table I ROB
  const RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.begin(), ring.end());
}

TEST(RingBufferProperty, MatchesDequeOnRandomOperations) {
  // Differential check against std::deque: random pushes and pops at both
  // ends of a small ring wrap its head around the slab many times, and
  // every element must stay where the deque has it.
  Rng rng(14);
  RingBuffer<std::uint64_t> ring(8);
  std::deque<std::uint64_t> reference;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t value = rng.next();
    switch (rng.below(6)) {
      case 0:
      case 1:
        if (reference.size() < ring.capacity()) {
          ring.push_back(value);
          reference.push_back(value);
        }
        break;
      case 2:
        if (reference.size() < ring.capacity()) {
          ring.emplace_back() = value;
          reference.push_back(value);
        }
        break;
      case 3:
        if (!reference.empty()) {
          ring.pop_front();
          reference.pop_front();
        }
        break;
      case 4:
        if (!reference.empty()) {
          ring.pop_back();
          reference.pop_back();
        }
        break;
      default:
        if (rng.below(50) == 0) {
          ring.clear();
          reference.clear();
        }
        break;
    }
    ASSERT_EQ(ring.size(), reference.size()) << i;
    ASSERT_EQ(ring.empty(), reference.empty()) << i;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(ring[k], reference[k]) << i << " at " << k;
    }
    if (!reference.empty()) {
      ASSERT_EQ(&ring.front(), &ring[0]) << i;
      ASSERT_EQ(&ring.back(), &ring[ring.size() - 1]) << i;
    }
  }
}

TEST(RingBufferTest, IteratesFrontToBack) {
  RingBuffer<int> ring(4);
  for (int v = 0; v < 6; ++v) {
    if (ring.size() == ring.capacity()) ring.pop_front();
    ring.push_back(v);
  }
  // Holds 2..5 with the head past the wrap.
  std::vector<int> seen;
  for (const int v : ring) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<int>{2, 3, 4, 5}));
  EXPECT_EQ(ring.end() - ring.begin(), 4);
  std::vector<int> reversed(std::make_reverse_iterator(ring.end()),
                            std::make_reverse_iterator(ring.begin()));
  EXPECT_EQ(reversed, (std::vector<int>{5, 4, 3, 2}));
  const RingBuffer<int>& view = ring;
  EXPECT_EQ(*(view.begin() + 2), 4);
  EXPECT_EQ(view.begin()[3], 5);
}

/// Shaped like DynInst: plain fields beside a member that owns heap
/// storage (DynInst::WalkerRefs::overflow).
struct SlotRecord {
  std::uint64_t id;
  int counts[4];
  bool flag;
  std::vector<int> spill;
};

TEST(RingBufferTest, EmplaceBackValueInitializesAReusedSlot) {
  RingBuffer<SlotRecord> ring(2);
  SlotRecord& first = ring.emplace_back();
  first.id = 7;
  for (int& c : first.counts) c = -1;
  first.flag = true;
  first.spill.assign(1000, 42);  // heap storage the slot must release
  ring.pop_back();
  SlotRecord& again = ring.emplace_back();
  EXPECT_EQ(&again, &first) << "reuses the popped slot";
  EXPECT_EQ(&again, &ring.back());
  EXPECT_EQ(again.id, 0u);
  for (const int c : again.counts) EXPECT_EQ(c, 0);
  EXPECT_FALSE(again.flag);
  EXPECT_TRUE(again.spill.empty());
  EXPECT_EQ(again.spill.capacity(), 0u);
  // The same past the wrap: slot 0 is freed at the front, then reused
  // by an append after slot 1.
  again.spill.assign(10, 1);
  ring.emplace_back().spill.assign(20, 2);
  ring.pop_front();
  SlotRecord& wrapped = ring.emplace_back();
  EXPECT_EQ(&wrapped, &first);
  EXPECT_TRUE(wrapped.spill.empty());
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.front().spill.size(), 20u) << "the live neighbour is kept";
}

}  // namespace
}  // namespace safespec
