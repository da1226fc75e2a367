// Dynamic (in-flight) instruction record — one per ROB entry.
//
// Carries everything the paper's design attaches to pipeline entries: the
// usual OoO bookkeeping (operands, result, completion time) plus the
// SafeSpec shadow pointers — the paper augments the load/store queue with
// a pointer to the shadow d-cache line and the ROB with pointers to the
// shadow i-cache / TLB entries (§IV-A/B). Here all four live on the
// DynInst, whose position in the ROB plays both roles.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"
#include "safespec/shadow_structures.h"

namespace safespec::cpu {

/// Why an instruction will raise an exception at commit.
enum class Fault : std::uint8_t {
  kNone,
  kPermission,  ///< user access to a kernel page (deferred — P1)
  kUnmapped,    ///< access to an unmapped page
  kBadFetch,    ///< committed control flow reached a pc with no instruction
};

/// Execution status of a DynInst.
enum class InstState : std::uint8_t {
  kWaiting,    ///< in the issue queue, operands not all ready
  kIssued,     ///< executing; completes at done_cycle
  kDone,       ///< result available; waiting to commit
};

/// One in-flight instruction.
struct DynInst {
  SeqNum seq = 0;
  Addr pc = 0;
  isa::Instruction inst;

  InstState state = InstState::kWaiting;
  Cycle done_cycle = 0;

  // ---- operands / result ---------------------------------------------
  // Each source is either a value (ready) or a pending producer seq.
  std::uint64_t src1_value = 0;
  std::uint64_t src2_value = 0;
  bool src1_ready = true;
  bool src2_ready = true;
  SeqNum src1_producer = 0;
  SeqNum src2_producer = 0;
  std::uint64_t result = 0;

  // ---- memory ----------------------------------------------------------
  Addr effective_addr = 0;   ///< virtual address (valid once issued)
  Addr physical_addr = 0;    ///< after translation
  bool translated = false;
  Fault fault = Fault::kNone;
  bool store_forwarded = false;  ///< load satisfied from the store queue

  // ---- control flow ----------------------------------------------------
  bool predicted_taken = false;
  Addr predicted_next = 0;
  bool target_known = true;  ///< false: BTB missed; fetch stalled on us
  bool branch_resolved = false;
  bool actual_taken = false;
  Addr actual_next = 0;
  bool mispredicted = false;

  // ---- SafeSpec shadow pointers (§IV-A) --------------------------------
  // Each names a ShadowTable entry, so a failed lookup's kNone is "none".
  static constexpr int kNoShadow = shadow::ShadowCache::kNone;
  int shadow_dline = kNoShadow;   ///< shadow d-cache entry (loads)
  int shadow_iline = kNoShadow;   ///< shadow i-cache entry (fetch)
  int shadow_dtlb = kNoShadow;    ///< shadow dTLB entry
  int shadow_itlb = kNoShadow;    ///< shadow iTLB entry
  /// Shadow d-cache entries for page-walker lines (the walker issues its
  /// accesses through the load/store path, §IV-A, so its side effects are
  /// shadowed like any other speculative load). One walk acquires at most
  /// kInline (= PageTable::kWalkLevels) refs, so the common case is the
  /// allocation-free inline array; only a kStall retry storm — which
  /// re-walks and re-acquires the same lines every retry cycle — spills
  /// into the overflow vector (empty vectors hold no heap storage).
  struct WalkerRefs {
    static constexpr int kInline = 4;
    int inline_ids[kInline];
    std::uint8_t inline_count = 0;
    std::vector<int> overflow;

    void push_back(int id) {
      if (inline_count < kInline) {
        inline_ids[inline_count++] = id;
      } else {
        overflow.push_back(id);
      }
    }
    void clear() {
      inline_count = 0;
      overflow.clear();
    }
    bool empty() const { return inline_count == 0; }
    /// Calls fn(id) for every held ref, in acquisition order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (int i = 0; i < inline_count; ++i) fn(inline_ids[i]);
      for (const int id : overflow) fn(id);
    }
  };
  WalkerRefs walker_refs;
  bool shadow_promoted = false;   ///< WFB: promotion already performed

  /// Forgets every shadow ref, once each was promoted or released.
  void drop_shadow_refs() {
    shadow_dline = shadow_iline = shadow_dtlb = shadow_itlb = kNoShadow;
    walker_refs.clear();
  }

  // ---- scheduler bookkeeping (wakeup lists) ----------------------------
  /// Seqs of consumers that bound an operand to this instruction while it
  /// was in flight. wake_dependents visits exactly these instead of
  /// walking the younger ROB suffix. Entries can go stale after a
  /// squash-rewind reuses seqs — wakeup re-validates against the
  /// consumer's recorded producer, which makes stale entries inert. On
  /// overflow the producer falls back to the full suffix scan.
  static constexpr int kMaxDeps = 8;
  SeqNum deps[kMaxDeps];
  std::uint8_t dep_count = 0;
  bool dep_overflow = false;

  void note_dependent(SeqNum consumer) {
    for (int i = 0; i < dep_count; ++i) {
      if (deps[i] == consumer) return;  // re-bind of the other operand
    }
    if (dep_count < kMaxDeps) {
      deps[dep_count++] = consumer;
    } else {
      dep_overflow = true;
    }
  }

  bool is_load() const { return inst.op == isa::OpClass::kLoad; }
  bool is_store() const { return inst.op == isa::OpClass::kStore; }
  bool is_branch() const { return inst.is_branch(); }
};

}  // namespace safespec::cpu
