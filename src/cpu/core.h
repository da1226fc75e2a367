// Cycle-level out-of-order core with optional SafeSpec protection.
//
// The pipeline models the structures from Table I (6-wide issue/commit,
// 96-entry IQ, 224-entry ROB, 72/56-entry LDQ/STQ, 64-entry TLBs) over the
// Table II memory hierarchy, with an execute-driven micro-ISA so that
// speculative data flow — the substrate of every speculation attack — is
// real. Three protection modes share one datapath:
//
//   * Baseline:  speculative memory accesses fill caches/TLBs directly
//                (classic insecure behaviour; the paper's baseline).
//   * WFB/WFC:   speculative fills land in shadow structures and are only
//                promoted to the primary hierarchy once the producing
//                instruction is past its last unresolved older branch
//                (WFB) or commits (WFC). Squashes annul shadow state in
//                place (§III, Fig 3).
//
// All four shadow structures follow one lifecycle, written once. Loads
// and fetch share one line lookup (lookup_line), and loads, stores,
// flushes and fetch one translation sequence (translate): each tries the
// primary structure, then the shadow, then the level below, which fills
// the shadow. One walk over an instruction's shadow refs (settle_shadow)
// promotes them at commit or WFB resolution, or releases them on a squash.
//
// Timing-model simplifications:
//   * Memory side effects apply at issue time; there are therefore no
//     delayed responses needing the §III "filter" — squash of an issued
//     load simply releases its shadow reference.
//   * Store data is written (and the line installed) at commit — the TSO
//     behaviour the paper relies on to leave stores unshadowed (§IV-B).
//   * The shadow lookup costs the same as an L1 hit (4 cycles), matching
//     the paper's conservative assumption.
//
// Scheduling is event-driven, so host work per cycle follows pipeline
// events rather than window size: completion pops the back of a list kept
// sorted by (done_cycle, seq), issue visits a ready list, a load's memory
// disambiguation visits only the older entries of an in-order store queue
// (the in-flight stores' seqs), and the WFB promotion sweep visits only
// entries that became eligible or that the frontier newly uncovered.
// Dispatch and fetch build each DynInst/FetchedInst in its ring slot,
// and a DynInst is built without a zeroing pass over it first.
// step() is the exact one-cycle reference; after a step in which no stage
// acted, quiet_until() names the next cycle any stage can act, and
// skip_quiet() jumps the clock there (sim::Simulator::run does both).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ring_buffer.h"
#include "common/stats.h"
#include "common/types.h"
#include "cpu/dyn_inst.h"
#include "isa/program.h"
#include "memory/cache_hierarchy.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "memory/tlb.h"
#include "predictor/predictor_unit.h"
#include "safespec/policy.h"
#include "safespec/shadow_structures.h"

namespace safespec::cpu {

/// Deliberate defect injection for mutation-testing the differential
/// fuzzing harness (src/fuzz/): each flag corrupts exactly one thing a
/// harness invariant must catch, so the harness's detection power is
/// itself testable. All off in normal operation; never serialized into
/// MachineSpec documents.
struct MutationHooks {
  /// Squashes leak their shadow references instead of annulling them —
  /// caught by the empty-shadows-after-drain invariant.
  bool skip_squash_release = false;
  /// XORed into every committed register writeback — caught by the
  /// oracle-equivalence invariant (and invisible to the cross-policy
  /// comparison, since every policy corrupts identically: the reason the
  /// harness needs an architectural oracle at all).
  std::uint64_t commit_xor = 0;
};

/// Core pipeline configuration (Table I defaults).
struct CoreConfig {
  /// Machine-level: number of cores sharing the L2/L3. Each core gets
  /// this same per-core configuration (private L1s/TLBs/shadows). Lives
  /// on CoreConfig — not beside it — so every harness that carries one
  /// (experiment cells, the workload runner, fuzz cells, attack configs)
  /// inherits the axis without plumbing; MachineSpec serializes it as the
  /// top-level "cores" field and validates the range. The Core itself
  /// ignores it.
  int cores = 1;
  int fetch_width = 6;
  int issue_width = 6;
  int commit_width = 6;
  int iq_entries = 96;
  int rob_entries = 224;
  int ldq_entries = 72;
  int stq_entries = 56;
  int fetch_to_dispatch_delay = 5;  ///< front-end depth (mispredict penalty)
  /// Cycles between an instruction's completion (writeback) and its
  /// earliest retirement. Real retirement logic is pipelined; this gap is
  /// precisely the race window Meltdown exploits — dependent transmitting
  /// uops issue while the faulting load awaits retirement (P1, §II-B4).
  int commit_delay = 4;
  /// Decoded-instruction buffer (DIB) lines in fetch: a direct-mapped
  /// host-side cache of decoded-instruction lookups keyed by virtual
  /// 64-byte fetch line, so loop iterations stop re-walking the program
  /// map every cycle. Purely a simulator optimisation — it models no
  /// hardware and never changes a cycle count (proven by test). 0
  /// disables it; other values round up to a power of two. The default
  /// covers the largest synthetic code footprint (gcc, ~263 lines)
  /// without direct-map aliasing; a line is 136 host bytes, so this is
  /// ~140 KB per core.
  int dib_lines = 1024;

  Cycle alu_latency = 1;
  Cycle mul_latency = 3;
  Cycle div_latency = 20;
  Cycle shadow_hit_latency = 4;  ///< conservative: same as an L1 hit

  predictor::PredictorConfig predictor;
  memory::HierarchyConfig hierarchy;
  memory::TlbConfig itlb{.name = "iTLB", .entries = 64, .ways = 4};
  memory::TlbConfig dtlb{.name = "dTLB", .entries = 64, .ways = 4};

  // ---- SafeSpec --------------------------------------------------------
  /// Name of the protection policy ("baseline", "WFB", "WFC",
  /// "WFB-stall", ...). Resolved through policy::named_policy() when the
  /// core is built.
  std::string policy = "baseline";
  /// Worst-case ("Secure") sizing by default: LDQ-bound for the d-side,
  /// ROB-bound for the i-side (§V / §VII). Benchmarks shrink these to
  /// study 99.99%-sizing and TSAs.
  shadow::ShadowConfig shadow_dcache{.name = "shadow-dcache", .entries = 72};
  shadow::ShadowConfig shadow_icache{.name = "shadow-icache", .entries = 224};
  shadow::ShadowConfig shadow_dtlb{.name = "shadow-dtlb", .entries = 72};
  shadow::ShadowConfig shadow_itlb{.name = "shadow-itlb", .entries = 224};

  // ---- SHARP detector --------------------------------------------------
  /// Alarms within one epoch before the SHARP detector flags a detection
  /// (the exemplar's 2,000-alarms-per-epoch recommendation), and the
  /// epoch length in replacement stamps. Applied to every cache level by
  /// tuned_config(); inert unless the policy selects a CacheProtection
  /// (SHARP / detect-only).
  std::uint64_t sharp_alarm_threshold = 2000;
  std::uint64_t sharp_alarm_epoch = 1'000'000'000;

  /// Mutation-testing defect injection (see MutationHooks).
  MutationHooks mutation;
};

/// `c` with its protection policy applied: the policy's full-table
/// override on the four shadow structures, and its cache protection
/// with the SHARP detector settings on every cache level. The only code
/// that applies a policy to a config: the core builds from it and the
/// Simulator builds the shared L2/L3 from its `.hierarchy`, so private
/// and shared levels agree. Throws std::out_of_range on an unknown
/// policy name.
CoreConfig tuned_config(CoreConfig c);

/// Why a run ended.
enum class StopReason : std::uint8_t {
  kHalted,        ///< committed a kHalt
  kFaultNoHandler,///< unhandled fault committed
  kMaxCycles,     ///< hit the cycle budget
  kMaxInstrs,     ///< hit the instruction budget
};

/// Short stable label ("halted", "fault", "max-cycles", "max-instrs") —
/// result sinks use it to flag non-converged cells.
const char* to_string(StopReason reason);

/// Aggregate statistics of one run.
struct CoreStats {
  Cycle cycles = 0;
  std::uint64_t committed_instrs = 0;
  std::uint64_t committed_loads = 0;
  std::uint64_t committed_stores = 0;
  std::uint64_t committed_branches = 0;
  std::uint64_t fetched_instrs = 0;
  std::uint64_t squashed_instrs = 0;
  std::uint64_t squashes = 0;
  std::uint64_t mispredicts = 0;
  std::uint64_t faults = 0;
  std::uint64_t shadow_stall_cycles = 0;  ///< issue stalls from kStall

  // Per-instruction fetch accounting (Figs 14/15): each fetched
  // instruction is served by exactly one of L1I / shadow i-cache / below.
  std::uint64_t fetch_accesses = 0;
  std::uint64_t fetch_l1i_hits = 0;
  std::uint64_t fetch_shadow_hits = 0;
  std::uint64_t fetch_misses = 0;  ///< went to L2/L3/memory

  // Host-side decoded-instruction buffer effectiveness (no timing role).
  std::uint64_t dib_hits = 0;
  std::uint64_t dib_fills = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed_instrs) / cycles;
  }
};

/// The core. Owns all microarchitectural state; borrows the program,
/// architectural memory and page table (which the attack harnesses also
/// manipulate directly, playing the role of the OS / other processes).
class Core {
 public:
  /// The core's hierarchy attaches to the machine's `shared_levels` and
  /// stamps its L2/L3 requests with `core_id`.
  Core(const CoreConfig& config, const isa::Program* program,
       memory::MainMemory* mem, memory::PageTable* page_table,
       memory::SharedLevels& shared_levels, int core_id);

  /// Single-steps one cycle: the exact one-cycle reference. Tests drive
  /// it directly; sim::Simulator::run drives it between quiet jumps.
  void step();

  /// The first cycle at which a stage can act again, as of the last
  /// step(). now() when that step acted (completed, committed or faulted,
  /// issued or retried a kStall issue, dispatched, fetched past its
  /// gates, or promoted); otherwise the earliest timed wakeup — next
  /// completion, ROB-head retirement, fetch-queue head readiness, end of
  /// a fetch miss — and kNeverCycle when nothing is timed. Until then
  /// nothing changes but the clock and the occupancy samples.
  Cycle quiet_until() const;

  /// Advances the clock over `n` quiet cycles (now() + n <=
  /// quiet_until()), recording their occupancy samples in one call:
  /// exactly equivalent to `n` step() calls.
  void skip_quiet(Cycle n);

  static constexpr Cycle kNeverCycle = ~Cycle{0};

  bool halted() const { return halted_; }
  Cycle now() const { return cycle_; }
  int core_id() const { return core_id_; }

  /// Why the core halted. Set at the halt/fault commit sites, so it is
  /// accurate for any halted() core; budget and wedge stops are reported
  /// by sim::Simulator::run, which enforces them.
  StopReason stop_reason() const { return stop_reason_; }

  /// True when the core can make no further progress by stepping:
  /// halted, or committed control flow reached a pc with no instruction
  /// (the front end is stalled with an empty pipeline and can never
  /// refill). sim::Simulator::run stops stepping a finished core.
  bool finished() const {
    return halted_ || (fetch_stalled_ && rob_.empty() && fetch_queue_.empty());
  }

  /// Architectural register read (post-run inspection by harnesses).
  std::uint64_t reg(RegIndex r) const { return regs_[r]; }
  void set_reg(RegIndex r, std::uint64_t v) {
    if (r != kZeroReg) regs_[r] = v;
  }

  memory::PrivLevel priv_level() const { return priv_; }
  void set_priv_level(memory::PrivLevel p) { priv_ = p; }

  const CoreStats& stats() const { return stats_; }
  CoreStats& stats() { return stats_; }

  // ---- structures exposed for attacks / tests / benches ----------------
  memory::CacheHierarchy& hierarchy() { return hierarchy_; }
  const memory::CacheHierarchy& hierarchy() const { return hierarchy_; }
  memory::Tlb& itlb() { return itlb_; }
  memory::Tlb& dtlb() { return dtlb_; }
  predictor::PredictorUnit& predictor() { return predictor_; }
  shadow::ShadowCache& shadow_dcache() { return shadow_dcache_; }
  shadow::ShadowCache& shadow_icache() { return shadow_icache_; }
  shadow::ShadowTlb& shadow_dtlb() { return shadow_dtlb_; }
  shadow::ShadowTlb& shadow_itlb() { return shadow_itlb_; }
  const shadow::ShadowCache& shadow_dcache() const { return shadow_dcache_; }
  const shadow::ShadowCache& shadow_icache() const { return shadow_icache_; }
  const shadow::ShadowTlb& shadow_dtlb() const { return shadow_dtlb_; }
  const shadow::ShadowTlb& shadow_itlb() const { return shadow_itlb_; }

  const CoreConfig& config() const { return config_; }
  const policy::ProtectionPolicy& protection_policy() const {
    return policy_;
  }

  /// Restarts control flow at `pc` with empty pipeline (between attack
  /// phases). Microarchitectural state (caches, predictors, shadows) is
  /// deliberately preserved — that persistence is what attacks exploit.
  void restart_at(Addr pc);

  /// The next architecturally-correct pc: the oldest in-flight
  /// instruction's pc (in-order commit means everything older has
  /// committed, so the ROB head is always on the committed path), the
  /// oldest fetched-but-undispatched instruction's pc when the ROB is
  /// empty, or the fetch pc when the whole pipeline is. At a kMaxInstrs
  /// stop, (reg state, next_commit_pc) is therefore exactly the
  /// committed architectural state — the hand-off point sampled
  /// simulation resumes the functional engine from.
  Addr next_commit_pc() const;

  /// Checkpoint restore (sampled simulation): installs the committed
  /// register file and restarts control flow at `pc`. Equivalent to 32x
  /// set_reg + restart_at — microarchitectural warming state survives,
  /// exactly like a phase restart.
  void restore_arch(const std::array<std::uint64_t, kNumArchRegs>& regs,
                    Addr pc);

  /// Drops every decoded-instruction-buffer line. Call after mutating
  /// the program text under a live core (the DIB caches Instruction
  /// pointers into it, like the functional engine's translation cache
  /// caches page-table entries).
  void invalidate_dib();

 private:
  struct FetchedInst {
    Addr pc = 0;
    isa::Instruction inst;
    bool predicted_taken = false;
    Addr predicted_next = 0;
    Cycle ready_at = 0;
    int shadow_iline = DynInst::kNoShadow;
    int shadow_itlb = DynInst::kNoShadow;
  };

  // ---- pipeline stages (called in this order each cycle) --------------
  void stage_complete();
  void stage_commit();
  void stage_issue();
  void stage_dispatch();
  void stage_fetch();

  // ---- helpers ---------------------------------------------------------
  bool rob_full() const {
    return static_cast<int>(rob_.size()) >= config_.rob_entries;
  }
  /// The ROB head's seq, or next_seq_ when the ROB is empty. ROB seqs
  /// are contiguous (dispatch appends next_seq_++; squash/commit only pop
  /// the ends, and a squash rewinds next_seq_) and end just below
  /// next_seq_, so this reads no entry.
  SeqNum head_seq() const { return next_seq_ - rob_.size(); }
  /// O(1): an in-flight seq's slot is seq - head_seq().
  DynInst* find_by_seq(SeqNum seq);
  /// Delivers `producer`'s result to its consumers; a consumer whose last
  /// operand arrives joins the ready list.
  void wake_dependents(const DynInst& producer);
  /// Clock advance shared by step() and skip_quiet().
  void advance_clock(Cycle n);

  /// WFB promotion sweep (promote_at_branch_resolution policies): promotes,
  /// oldest first, every eligible entry below the frontier (the oldest
  /// unresolved branch) that is not yet promoted — the queued eligibility
  /// events below the scan point, then [promote_scan_, frontier).
  void promote_eligible();
  /// Records that the entry `seq` just became eligible for WFB promotion
  /// (a non-branch issued, or a branch resolved). Entries at or past the
  /// scan point need no event: the frontier reaches them later.
  void note_eligible(SeqNum seq) {
    if (policy_.promote_at_branch_resolution && seq < promote_scan_) {
      promote_events_.push_back(seq);
    }
  }

  /// Issues one instruction (computes result / performs memory access
  /// side effects). Returns its completion cycle, also stored in
  /// di.done_cycle, or kNeverCycle when the instruction cannot issue this
  /// cycle (memory ordering or shadow-stall) and must retry.
  Cycle execute(DynInst& di);

  /// What served a line lookup or a translation.
  enum class Source : std::uint8_t {
    kPrimary,   ///< the L1, or the TLB
    kShadow,    ///< a held ref, or a shadow-table hit
    kBelow,     ///< below the L1, or a page walk
    kFull,      ///< as kBelow, but a kStall shadow table was full
    kUnmapped,  ///< the page walk found no mapping
  };
  struct Lookup {
    Source source = Source::kPrimary;
    Cycle latency = 0;
    memory::TlbEntry entry;  ///< translations only
  };
  /// The line lookup of loads and fetch, and the translation sequence of
  /// loads, stores, flushes and fetch (a page walk's line refs go to
  /// `walker`; fetch has none). `ref` is the shadow entry the access
  /// holds; a kFull result leaves it as it was.
  Lookup lookup_line(memory::Side side, Addr paddr, int& ref);
  Lookup translate(memory::Side side, Addr vpage, int& ref, DynInst* walker);

  /// Load/store/flush address translation. Returns the added latency, or
  /// nullopt after a shadow stall; sets di.physical_addr / di.fault.
  std::optional<Cycle> translate_data(DynInst& di);

  /// Page-walk timing: kWalkLevels accesses through the d-side hierarchy.
  /// Speculative walks under SafeSpec use non-filling accesses whose
  /// lines land in the shadow d-cache *unreferenced by any instruction* —
  /// conservatively freed on squash via the walker ref held by `di`.
  Cycle walk_page_table(DynInst* di, Addr vpage);

  /// Promotes every shadow entry the instruction references into the
  /// primary structures (commit or WFB-resolution path); once only.
  void promote_shadow(DynInst& di);
  /// Squash path: annuls the instruction's shadow entries, as the policy
  /// and the mutation hooks decide.
  void release_shadow(DynInst& di);
  /// Visits every ref `di` holds in promotion order — d-line, walker
  /// lines, i-line, dTLB, iTLB — and promotes or releases each.
  void settle_shadow(DynInst& di, bool promote);

  /// DIB-accelerated program_->at(): identical results, one map walk
  /// per 64-byte line instead of per instruction.
  const isa::Instruction* fetch_decode(Addr pc);

  void resolve_branch(DynInst& di);
  void squash_younger_than(SeqNum seq, Addr redirect_pc);
  /// Empties the fetch queue and abandons any fetch in progress,
  /// releasing their shadow refs, and restarts fetch at `pc`.
  void redirect_fetch(Addr pc);
  void rebuild_rename_map();
  void raise_fault(DynInst& head);
  void commit_one(DynInst& head);

  /// Reads an operand at dispatch: value or producer seq. In-flight
  /// producers additionally record `consumer` on their wakeup list.
  void bind_operand(SeqNum consumer, RegIndex reg, std::uint64_t& value,
                    bool& ready, SeqNum& producer);

  bool protection_on() const { return policy_.shadows_speculation; }

  /// Removes `seq` from a sorted seq vector (no-op when absent).
  static void erase_seq(std::vector<SeqNum>& seqs, SeqNum seq);

  // ---- configuration / substrate ---------------------------------------
  CoreConfig config_;
  policy::ProtectionPolicy policy_;  ///< config_.policy's table row
  const isa::Program* program_;
  memory::MainMemory* mem_;
  memory::PageTable* page_table_;
  int core_id_ = 0;

  // ---- microarchitectural structures ------------------------------------
  memory::CacheHierarchy hierarchy_;
  memory::Tlb itlb_;
  memory::Tlb dtlb_;
  predictor::PredictorUnit predictor_;
  shadow::ShadowCache shadow_dcache_;
  shadow::ShadowCache shadow_icache_;
  shadow::ShadowTlb shadow_dtlb_;
  shadow::ShadowTlb shadow_itlb_;

  // ---- architectural state ----------------------------------------------
  std::uint64_t regs_[kNumArchRegs] = {};
  memory::PrivLevel priv_ = memory::PrivLevel::kUser;

  // ---- pipeline state -----------------------------------------------------
  Cycle cycle_ = 0;
  SeqNum next_seq_ = 1;
  // Pre-sized rings: the ROB, fetch buffer and store queue have hard
  // architectural bounds, so their storage is one contiguous slab each.
  // Dispatch and fetch fill new entries in place (emplace_back).
  RingBuffer<DynInst> rob_;
  RingBuffer<FetchedInst> fetch_queue_;
  /// Store queue (Table I's STQ): the seqs of exactly the in-flight
  /// stores, ascending (ROB order). Dispatch appends, commit and a
  /// faulting head pop the front, squash pops the back. Its size is the
  /// STQ occupancy. A load's disambiguation visits only the entries older
  /// than the load: one whose address is still unknown (kWaiting) blocks
  /// it, and the youngest one to its word forwards.
  RingBuffer<SeqNum> stores_;
  /// Seqs of unresolved kBranch/kBranchIndirect/kRet entries, ascending
  /// (dispatch appends monotonically; front() is the WFB frontier).
  std::vector<SeqNum> unresolved_branches_;

  // ---- scheduler --------------------------------------------------------
  // Every squash drops the squashed suffix from all three lists below, so
  // each element names a live entry (seqs are reused after the rewind).
  /// (done_cycle, seq) of every kIssued entry, sorted descending: the
  /// back is the next completion. Completion pops exactly the entries
  /// finishing this cycle, oldest first, instead of walking the ROB.
  /// Issue inserts scanning from the back, where a new entry (finishing
  /// soonest) usually lands; a squash erases in place, keeping the order.
  std::vector<std::pair<Cycle, SeqNum>> completions_;
  /// Seqs of kWaiting entries whose operands are all ready, ascending —
  /// filled at dispatch and by wake_dependents, drained by issue, which
  /// visits only these (oldest first, as a full window scan would).
  std::vector<SeqNum> ready_;
  /// kWaiting (dispatched, not yet issued) entries: IQ occupancy.
  int iq_occupancy_ = 0;
  /// WFB promotion scan point: the frontier at the last sweep. Every
  /// entry below it that was eligible then was promoted then; entries
  /// that became eligible since are queued in promote_events_, so no
  /// sweep revisits an entry whose eligibility did not change.
  SeqNum promote_scan_ = 0;
  std::vector<SeqNum> promote_events_;
  /// Whether a stage acted in the last stepped cycle (see quiet_until).
  bool acted_ = false;

  // Rename: arch reg -> producing seq (0 = value lives in regs_).
  SeqNum rename_[kNumArchRegs] = {};

  /// One decoded-instruction-buffer line: the program-map lookup result
  /// for every instruction slot of one 64-byte virtual line. The tag
  /// sentinel ~0 can never match a real line index.
  struct DibLine {
    Addr tag = ~Addr{0};
    std::array<const isa::Instruction*, kLineSize / isa::kInstrBytes>
        slots{};
  };
  std::vector<DibLine> dib_;  ///< direct-mapped; empty when disabled
  Addr dib_mask_ = 0;
  /// L0 over the DIB: the line the previous fetch_decode hit.
  /// Sequential fetches within a 64-byte line — the common case at any
  /// fetch width — resolve with one compare and one load. The pointer
  /// stays valid because dib_ never resizes after construction.
  const DibLine* dib_last_ = nullptr;
  Addr dib_last_line_ = ~Addr{0};

  Addr fetch_pc_ = 0;
  bool fetch_stalled_ = false;      ///< barrier (halt / unknown target)
  Cycle fetch_busy_until_ = 0;      ///< i-cache/iTLB miss in progress
  /// Shadow references acquired by an in-progress fetch (miss pending);
  /// handed to the next FetchedInst, or released on squash/restart.
  int pending_iline_ = DynInst::kNoShadow;
  int pending_itlb_ = DynInst::kNoShadow;
  int loads_in_flight_ = 0;         ///< LDQ occupancy
  bool fence_active_ = false;       ///< a kFence is in the ROB
  bool halted_ = false;
  StopReason stop_reason_ = StopReason::kMaxCycles;

  CoreStats stats_;
};

}  // namespace safespec::cpu
