// Fast functional (architecture-only) execution engine.
//
// The fuzz harness's in-order oracle, promoted to a first-class engine:
// one instruction per step, no microarchitecture, producing exactly the
// committed architectural state the out-of-order core produces. Promotion earned it the hot-path
// treatment the detailed core got in PRs 4-5:
//
//   * the program text is predecoded into a dense slot table indexed by
//     (pc - base) / kInstrBytes, so the per-instruction fetch is a
//     bounds check + load instead of a PagedAddrMap probe;
//   * data translations go through a small direct-mapped cache in front
//     of PageTable::translate, so the per-access cost is one tag
//     compare in the (overwhelmingly common) re-touched-page case;
//   * the step loop allocates nothing.
//
// Two consumers: the differential fuzzer's reference state (nightly 10k
// seeds), and sampled simulation (Simulator::run_sampled) where this
// engine fast-forwards between detailed sample windows and hands the
// architectural state across via ArchCheckpoint.
//
// Semantics: faults bite at the faulting instruction's commit point and
// redirect to the program's fault handler (or end the run with
// kFaultNoHandler); committed control flow reaching a pc with no
// instruction ends the run; division by zero yields all-ones; the zero
// register never writes; execution is always user-level. The one
// deliberate divergence stands: kRdCycle reads the committed-instruction
// count, as no cycle exists here.
//
// The engine caches translations: if the page table is remapped between
// runs (attack-harness style), call invalidate_translations().
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "cpu/core.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"

namespace safespec::sim {

/// Committed architectural state at a sample-window boundary, as emitted
/// by FunctionalEngine::checkpoint() and consumed by
/// FunctionalEngine::restore() and Core::restore_arch.
///
/// Memory is not carried: in sampled simulation the engine and the
/// detailed core share one MainMemory, so every store is already where
/// the other side reads it (a caller that wants the image at a
/// checkpoint copies the MainMemory, which is copy-on-write).
/// Microarchitectural warming state (caches, TLBs, predictors, shadows)
/// is deliberately not captured either: it lives in the persistent
/// detailed Core across windows, and each window's warmup interval
/// re-warms whatever the fast-forwarded gap staled.
struct ArchCheckpoint {
  std::array<std::uint64_t, kNumArchRegs> regs{};
  Addr pc = 0;                  ///< next instruction to execute
  std::uint64_t committed = 0;  ///< instructions committed so far
  std::uint64_t faults = 0;     ///< architectural faults raised so far
  bool started = false;         ///< false = pristine (pc not yet valid)
};

class FunctionalEngine {
 public:
  /// Borrows everything; `mem` is mutated by stores.
  FunctionalEngine(const isa::Program* program, memory::MainMemory* mem,
                   const memory::PageTable* page_table);

  /// Runs from the program entry (or wherever the previous run/restore
  /// left off) until halt, unrecoverable fault, or `max_instrs` further
  /// committed instructions. Resumable, like Simulator::run.
  cpu::StopReason run(std::uint64_t max_instrs);

  std::uint64_t reg(RegIndex r) const { return regs_[r]; }
  void set_reg(RegIndex r, std::uint64_t v) {
    if (r != kZeroReg) regs_[r] = v;
  }

  /// Committed instruction count (faulting instructions never commit,
  /// matching CoreStats::committed_instrs).
  std::uint64_t committed() const { return committed_; }
  /// Architecturally raised faults (matching CoreStats::faults).
  std::uint64_t faults() const { return faults_; }
  Addr pc() const { return pc_; }

  // ---- checkpoints ------------------------------------------------------
  /// Snapshots the architectural state (registers, pc, counters).
  ArchCheckpoint checkpoint() const;

  /// Restores registers, pc and counters from `cp`; memory is not
  /// touched.
  void restore(const ArchCheckpoint& cp);

  /// Drops cached translations. Call after remapping the page table
  /// between runs.
  void invalidate_translations();

  /// Back to the pristine post-construction state — zero registers and
  /// counters, next run() starts at the program entry, translations
  /// dropped. The predecoded text is kept (the program is borrowed and
  /// immutable), which is the point: a cached engine reset() + run()
  /// behaves bit-identically to a freshly constructed one without
  /// re-paying the predecode pass.
  void reset();

 private:
  /// Predecoded instruction slot. `present` distinguishes real
  /// instructions from holes in the dense table.
  struct Slot {
    isa::Instruction inst;
    bool present = false;
  };

  /// Dense-table fetch when the program's text span fits, PagedAddrMap
  /// fallback otherwise. Returns nullptr on a hole / out-of-range /
  /// misaligned pc — the kFaultNoHandler path.
  const isa::Instruction* fetch(Addr pc) const {
    const Addr offset = pc - text_base_;
    if (offset % isa::kInstrBytes == 0) {
      const Addr slot = offset / isa::kInstrBytes;
      if (slot < text_.size()) {
        const Slot& s = text_[slot];
        return s.present ? &s.inst : nullptr;
      }
    }
    if (dense_covers_all_) return nullptr;
    return program_->at(pc);
  }

  /// Translates a data address through the translation cache; returns
  /// false when the access must fault (unmapped, or kernel-only at the
  /// engine's fixed user level).
  bool translate(Addr vaddr, Addr& paddr);

  /// Fault dispatch: redirect to the handler, or end the run.
  bool handle_fault();

  void predecode();

  const isa::Program* program_;
  memory::MainMemory* mem_;
  const memory::PageTable* page_table_;

  // Predecoded text. `dense_covers_all_` means every instruction of the
  // program landed in text_, so a miss is authoritative.
  std::vector<Slot> text_;
  Addr text_base_ = 0;
  bool dense_covers_all_ = false;

  // Direct-mapped translation cache: tag = vpage + 1 (0 = empty), value
  // = ppage. Only successful user-level translations are cached, so the
  // hit path needs no permission re-check.
  static constexpr std::size_t kXlatEntries = 256;  // power of two
  std::array<Addr, kXlatEntries> xlat_tag_{};
  std::array<Addr, kXlatEntries> xlat_ppage_{};

  std::uint64_t regs_[kNumArchRegs] = {};
  Addr pc_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t faults_ = 0;
  bool started_ = false;
};

}  // namespace safespec::sim
