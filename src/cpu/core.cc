#include "cpu/core.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace safespec::cpu {

using isa::OpClass;
using memory::CacheHierarchy;
using memory::Side;
using shadow::FullPolicy;

// One page walk acquires at most one shadow ref per radix level; only
// kStall retry re-walks spill past the inline storage.
static_assert(DynInst::WalkerRefs::kInline >=
                  memory::PageTable::kWalkLevels,
              "walker ref inline storage must cover one full walk");

namespace {
/// Maximum decoded-but-undispatched instructions buffered by the front
/// end. Sized to cover the fetch-to-dispatch delay at full width.
constexpr int kFetchBufferCap = 48;
}  // namespace

CoreConfig tuned_config(CoreConfig c) {
  const policy::ProtectionPolicy& p = policy::named_policy(c.policy);
  if (p.full_policy_override) {
    for (shadow::ShadowConfig* s : {&c.shadow_dcache, &c.shadow_icache,
                                    &c.shadow_dtlb, &c.shadow_itlb}) {
      s->full_policy = *p.full_policy_override;
    }
  }
  for (memory::CacheConfig* level : {&c.hierarchy.l1i, &c.hierarchy.l1d,
                                     &c.hierarchy.l2, &c.hierarchy.l3}) {
    level->protection = p.cache_protection;
    level->alarm_threshold = c.sharp_alarm_threshold;
    level->alarm_epoch_ticks = c.sharp_alarm_epoch;
  }
  return c;
}

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kHalted:
      return "halted";
    case StopReason::kFaultNoHandler:
      return "fault";
    case StopReason::kMaxCycles:
      return "max-cycles";
    case StopReason::kMaxInstrs:
      return "max-instrs";
  }
  return "?";
}

Core::Core(const CoreConfig& config, const isa::Program* program,
           memory::MainMemory* mem, memory::PageTable* page_table,
           memory::SharedLevels& shared_levels, int core_id)
    : config_(tuned_config(config)),
      policy_(policy::named_policy(config_.policy)),
      program_(program),
      mem_(mem),
      page_table_(page_table),
      core_id_(core_id),
      hierarchy_(config_.hierarchy, shared_levels, core_id),
      itlb_(config_.itlb),
      dtlb_(config_.dtlb),
      predictor_(config_.predictor),
      shadow_dcache_(config_.shadow_dcache),
      shadow_icache_(config_.shadow_icache),
      shadow_dtlb_(config_.shadow_dtlb),
      shadow_itlb_(config_.shadow_itlb),
      rob_(static_cast<std::size_t>(config_.rob_entries)),
      fetch_queue_(
          static_cast<std::size_t>(kFetchBufferCap + config_.fetch_width)),
      stores_(static_cast<std::size_t>(config_.stq_entries)) {
  fetch_pc_ = program_->entry();
  unresolved_branches_.reserve(static_cast<std::size_t>(config_.rob_entries));
  completions_.reserve(static_cast<std::size_t>(config_.rob_entries));
  ready_.reserve(static_cast<std::size_t>(config_.iq_entries));
  promote_events_.reserve(static_cast<std::size_t>(config_.rob_entries));
  if (config_.dib_lines > 0) {
    std::size_t lines = 1;
    while (lines < static_cast<std::size_t>(config_.dib_lines)) lines *= 2;
    dib_.resize(lines);
    dib_mask_ = static_cast<Addr>(lines - 1);
  }
}

const isa::Instruction* Core::fetch_decode(Addr pc) {
  // Misaligned pcs (speculated indirect targets) are never occupied and
  // never cached — same answer program_->at() gives.
  if (dib_.empty() || pc % isa::kInstrBytes != 0) return program_->at(pc);
  const Addr line = pc >> kLineShift;
  const std::size_t slot = (pc & (kLineSize - 1)) / isa::kInstrBytes;
  // L0: sequential fetches stay on one line; skip even the indexed
  // lookup and tag compare then.
  if (line == dib_last_line_) {
    ++stats_.dib_hits;
    return dib_last_->slots[slot];
  }
  DibLine& entry = dib_[static_cast<std::size_t>(line & dib_mask_)];
  if (entry.tag == line) {
    ++stats_.dib_hits;
  } else {
    const Addr base = line << kLineShift;
    for (std::size_t i = 0; i < entry.slots.size(); ++i) {
      entry.slots[i] = program_->at(base + i * isa::kInstrBytes);
    }
    entry.tag = line;
    ++stats_.dib_fills;
  }
  dib_last_line_ = line;
  dib_last_ = &entry;
  return entry.slots[slot];
}

void Core::invalidate_dib() {
  for (DibLine& entry : dib_) entry.tag = ~Addr{0};
  dib_last_ = nullptr;
  dib_last_line_ = ~Addr{0};
}

void Core::step() {
  acted_ = false;
  stage_complete();
  stage_commit();
  stage_issue();
  stage_dispatch();
  stage_fetch();
  advance_clock(1);
}

Cycle Core::quiet_until() const {
  if (acted_) return cycle_;
  // A quiet cycle changed nothing, so the next one can differ only where
  // a gate compares against the clock. Gates that are already open but
  // held shut by pipeline state (a full window, a stalled front end)
  // reopen only through some other stage acting.
  Cycle wake = kNeverCycle;
  if (!completions_.empty()) wake = completions_.back().first;
  if (!rob_.empty() && rob_.front().state == InstState::kDone) {
    wake = std::min(wake, rob_.front().done_cycle +
                              static_cast<Cycle>(config_.commit_delay));
  }
  if (!fetch_queue_.empty() && fetch_queue_.front().ready_at >= cycle_) {
    wake = std::min(wake, fetch_queue_.front().ready_at);
  }
  if (!fetch_stalled_ && fetch_busy_until_ >= cycle_) {
    wake = std::min(wake, fetch_busy_until_);
  }
  assert(wake >= cycle_);
  return wake;
}

void Core::skip_quiet(Cycle n) {
  assert(n == 0 || cycle_ + n <= quiet_until());
  advance_clock(n);
}

void Core::advance_clock(Cycle n) {
  if (protection_on()) {
    shadow_dcache_.sample_occupancy(n);
    shadow_icache_.sample_occupancy(n);
    shadow_dtlb_.sample_occupancy(n);
    shadow_itlb_.sample_occupancy(n);
  }
  cycle_ += n;
  stats_.cycles += n;
}

// --------------------------------------------------------------------------
// Complete: retire execution results, resolve branches (possibly squashing).
// --------------------------------------------------------------------------

void Core::stage_complete() {
  // Pops exactly the entries finishing this cycle, oldest first — the
  // order a ROB walk would visit them in. A mispredicted branch squashes
  // everything younger, which also leaves the list.
  while (!completions_.empty() && completions_.back().first == cycle_) {
    const SeqNum seq = completions_.back().second;
    completions_.pop_back();
    DynInst* di = find_by_seq(seq);
    assert(di != nullptr && di->state == InstState::kIssued &&
           di->done_cycle == cycle_);
    acted_ = true;
    di->state = InstState::kDone;
    if (di->inst.writes_register()) wake_dependents(*di);
    if (di->is_branch()) resolve_branch(*di);
  }
  assert(completions_.empty() || completions_.back().first > cycle_);
}

void Core::resolve_branch(DynInst& di) {
  switch (di.inst.op) {
    case OpClass::kBranch:
      di.actual_taken = isa::eval_cond(di.inst.cond, di.src1_value,
                                       di.src2_value);
      di.actual_next =
          di.actual_taken ? di.inst.target : di.pc + isa::kInstrBytes;
      break;
    case OpClass::kJump:
    case OpClass::kCall:
      di.actual_taken = true;
      di.actual_next = di.inst.target;
      break;
    case OpClass::kBranchIndirect:
      di.actual_taken = true;
      di.actual_next = di.src1_value + static_cast<Addr>(di.inst.imm);
      break;
    case OpClass::kRet:
      di.actual_taken = true;
      di.actual_next = di.src1_value;
      break;
    default:
      return;
  }
  di.branch_resolved = true;
  note_eligible(di.seq);
  erase_seq(unresolved_branches_, di.seq);

  // Resolution-time training — the path an attacker mistrains through.
  predictor_.train(di.pc, di.inst, di.actual_taken, di.actual_next);

  const bool correct = di.target_known && di.predicted_next == di.actual_next;
  if (di.inst.op == OpClass::kBranch) predictor_.note_resolution(correct);

  if (!correct) {
    di.mispredicted = true;
    ++stats_.mispredicts;
    ++stats_.squashes;
    squash_younger_than(di.seq, di.actual_next);
  }
}

void Core::squash_younger_than(SeqNum seq, Addr redirect_pc) {
  while (!rob_.empty() && rob_.back().seq > seq) {
    DynInst& victim = rob_.back();
    release_shadow(victim);
    if (victim.is_branch()) erase_seq(unresolved_branches_, victim.seq);
    if (victim.is_load()) --loads_in_flight_;
    if (victim.is_store()) {
      assert(stores_.back() == victim.seq);
      stores_.pop_back();
    }
    if (victim.state == InstState::kWaiting) --iq_occupancy_;
    if (victim.inst.op == OpClass::kFence) fence_active_ = false;
    ++stats_.squashed_instrs;
    rob_.pop_back();
  }
  // Rewind numbering over the squashed suffix so ROB seqs stay contiguous
  // (the invariant find_by_seq's O(1) slot math relies on). Safe — every
  // reference to a squashed seq is erased here, and relabeling future
  // instructions preserves all age comparisons.
  next_seq_ = seq + 1;
  const auto squashed = [seq](SeqNum s) { return s > seq; };
  completions_.erase(
      std::remove_if(completions_.begin(), completions_.end(),
                     [&](const auto& c) { return squashed(c.second); }),
      completions_.end());
  ready_.erase(std::upper_bound(ready_.begin(), ready_.end(), seq),
               ready_.end());
  promote_events_.erase(std::remove_if(promote_events_.begin(),
                                       promote_events_.end(), squashed),
                        promote_events_.end());
  // The WFB scan point may lie past `seq` (the squashed suffix was
  // promotable); instructions dispatched after the rewind reuse those
  // seqs, so pull it back or the sweep would skip them — promoting their
  // shadow state only at commit and silently shifting WFB timing and
  // occupancy on every fault-handler recovery.
  promote_scan_ = std::min(promote_scan_, next_seq_);
  stats_.squashed_instrs += fetch_queue_.size();  // wrong-path fetches too
  redirect_fetch(redirect_pc);
  rebuild_rename_map();
}

void Core::redirect_fetch(Addr pc) {
  // Fetched instructions never reached the ROB, so their refs are always
  // released: the squash policy and mutation hooks govern ROB entries.
  const auto release = [this](int& iline, int& itlb) {
    if (iline != DynInst::kNoShadow) shadow_icache_.release(iline);
    if (itlb != DynInst::kNoShadow) shadow_itlb_.release(itlb);
    iline = itlb = DynInst::kNoShadow;
  };
  for (FetchedInst& fi : fetch_queue_) release(fi.shadow_iline, fi.shadow_itlb);
  fetch_queue_.clear();
  release(pending_iline_, pending_itlb_);
  fetch_pc_ = pc;
  fetch_stalled_ = false;
  fetch_busy_until_ = cycle_ + 1;
}

void Core::rebuild_rename_map() {
  std::fill(std::begin(rename_), std::end(rename_), SeqNum{0});
  for (const DynInst& di : rob_) {
    if (di.inst.writes_register()) rename_[di.inst.dst] = di.seq;
  }
}

// --------------------------------------------------------------------------
// Commit.
// --------------------------------------------------------------------------

void Core::stage_commit() {
  if (policy_.promote_at_branch_resolution && !rob_.empty()) {
    promote_eligible();
  }

  for (int n = 0; n < config_.commit_width && !rob_.empty(); ++n) {
    DynInst& head = rob_.front();
    if (head.state != InstState::kDone) break;
    // Retirement pipeline: completion-to-retire takes commit_delay cycles.
    if (cycle_ < head.done_cycle + static_cast<Cycle>(config_.commit_delay)) {
      break;
    }

    acted_ = true;
    if (head.fault != Fault::kNone) {
      raise_fault(head);
      return;  // pipeline redirected; stop committing this cycle
    }
    commit_one(head);
    rob_.pop_front();
    if (halted_) return;
  }
}

void Core::commit_one(DynInst& head) {
  // Architectural register update (commit_xor is 0 outside mutation
  // testing, where it simulates a corrupted writeback datapath).
  if (head.inst.writes_register()) {
    regs_[head.inst.dst] = head.result ^ config_.mutation.commit_xor;
    if (rename_[head.inst.dst] == head.seq) rename_[head.inst.dst] = 0;
  }

  switch (head.inst.op) {
    case OpClass::kStore:
      // TSO: the store's memory and cache side effects happen at commit,
      // which is why stores need no shadow structure (§IV-B).
      mem_->write64(head.physical_addr, head.src2_value);
      hierarchy_.fill_all_levels(line_of(head.physical_addr), Side::kData);
      assert(stores_.front() == head.seq);
      stores_.pop_front();
      ++stats_.committed_stores;
      break;
    case OpClass::kLoad:
      --loads_in_flight_;
      ++stats_.committed_loads;
      break;
    case OpClass::kFlush:
      hierarchy_.flush_line(line_of(head.physical_addr));
      break;
    case OpClass::kFence:
      fence_active_ = false;
      break;
    case OpClass::kHalt:
      halted_ = true;
      stop_reason_ = StopReason::kHalted;
      // Drain: anything younger can never commit; annul its shadow state
      // so end-of-run invariants (empty shadow tables) hold.
      squash_younger_than(head.seq, head.pc);
      fetch_stalled_ = true;
      break;
    default:
      break;
  }
  if (head.is_branch()) ++stats_.committed_branches;

  // WFC: shadow state is promoted only now, when the producing
  // instruction is guaranteed architectural (§III "wait-for-commit").
  // Under WFB the sweep above already promoted; promote_shadow is
  // idempotent via shadow_promoted. Baseline holds no references.
  promote_shadow(head);

  ++stats_.committed_instrs;
}

void Core::raise_fault(DynInst& head) {
  ++stats_.faults;
  ++stats_.squashes;
  // The faulting instruction never commits: its own shadow state is
  // annulled (under WFC this is exactly what stops Meltdown — the
  // dependent gadget load's line dies here too, with the rest of the
  // younger window).
  release_shadow(head);
  if (head.is_branch()) erase_seq(unresolved_branches_, head.seq);
  if (head.is_load()) --loads_in_flight_;
  if (head.is_store()) {
    assert(stores_.front() == head.seq);
    stores_.pop_front();
  }
  const SeqNum seq = head.seq;
  const auto handler = program_->fault_handler();
  squash_younger_than(seq, handler.value_or(0));
  // Remove the faulting head itself.
  rob_.pop_front();
  rebuild_rename_map();
  if (!handler.has_value()) {
    halted_ = true;
    stop_reason_ = StopReason::kFaultNoHandler;
  }
}

void Core::promote_eligible() {
  // An instruction's shadow state becomes commitable once no older branch
  // remains unresolved (§III "wait-for-branch") and its own fate is in:
  // it has issued, and a jump/call/branch has resolved. Everything at or
  // past the frontier has an older unresolved branch (or is one).
  const SeqNum front_seq = head_seq();
  const SeqNum frontier = unresolved_branches_.empty()
                              ? next_seq_
                              : unresolved_branches_.front();
  assert(frontier >= promote_scan_);
  const auto promote = [&](DynInst& di) {
    if (di.shadow_promoted) return;
    promote_shadow(di);
    acted_ = true;
  };
  // Entries an earlier sweep passed while ineligible and that became
  // eligible since. All lie below the scan point, so visiting them first
  // keeps promotions in age order.
  if (!promote_events_.empty()) {
    std::sort(promote_events_.begin(), promote_events_.end());
    for (const SeqNum seq : promote_events_) {
      DynInst& di = rob_[static_cast<std::size_t>(seq - front_seq)];
      assert(seq < promote_scan_ && di.state != InstState::kWaiting &&
             (!di.is_branch() || di.branch_resolved));
      promote(di);
    }
    promote_events_.clear();
  }
  // The range the frontier uncovered since the last sweep.
  for (SeqNum seq = std::max(promote_scan_, front_seq); seq < frontier;
       ++seq) {
    DynInst& di = rob_[static_cast<std::size_t>(seq - front_seq)];
    if (di.state != InstState::kWaiting &&
        (!di.is_branch() || di.branch_resolved)) {
      promote(di);
    }
  }
  promote_scan_ = frontier;
}

void Core::erase_seq(std::vector<SeqNum>& seqs, SeqNum seq) {
  const auto it = std::lower_bound(seqs.begin(), seqs.end(), seq);
  if (it != seqs.end() && *it == seq) seqs.erase(it);
}

// --------------------------------------------------------------------------
// Shadow promotion / annulment.
// --------------------------------------------------------------------------

void Core::promote_shadow(DynInst& di) {
  // WFB promotes at resolution; an issued instruction acquires no refs
  // after that, so commit finds nothing left to do.
  if (di.shadow_promoted) return;
  di.shadow_promoted = true;
  settle_shadow(di, /*promote=*/true);
}

void Core::release_shadow(DynInst& di) {
  if (config_.mutation.skip_squash_release) {
    // Injected defect (mutation testing): drop the references without
    // releasing them. The shadow entries stay live forever, so the
    // empty-shadows-after-drain invariant must trip.
    di.drop_shadow_refs();
  } else if (policy_.annul_on_squash) {
    settle_shadow(di, /*promote=*/false);
  } else {
    // Squash handling is a policy decision point: every shipped policy
    // annuls in place (Fig 3); a policy answering false promotes squashed
    // state anyway — the insecure strawman for annulment-cost ablations.
    promote_shadow(di);
  }
}

void Core::settle_shadow(DynInst& di, bool promote) {
  // A promotion counts the entry committed and installs it in the primary
  // structure (a line in every cache level, a translation in the TLB)
  // before the ref drops. The last release of an entry nobody promoted
  // annuls it in place.
  const auto settle = [&](auto& table, int id, Side side) {
    if (id == DynInst::kNoShadow) return;
    if (promote) {
      table.mark_promoted(id);
      if constexpr (std::is_same_v<decltype(table), shadow::ShadowCache&>) {
        hierarchy_.fill_all_levels(table.key(id), side);
      } else {
        const auto& payload = table.payload_of(id);
        (side == Side::kInstr ? itlb_ : dtlb_)
            .fill({table.key(id), payload.ppage, payload.kernel_only});
      }
    }
    table.release(id);
  };
  settle(shadow_dcache_, di.shadow_dline, Side::kData);
  di.walker_refs.for_each(
      [&](int id) { settle(shadow_dcache_, id, Side::kData); });
  settle(shadow_icache_, di.shadow_iline, Side::kInstr);
  settle(shadow_dtlb_, di.shadow_dtlb, Side::kData);
  settle(shadow_itlb_, di.shadow_itlb, Side::kInstr);
  di.drop_shadow_refs();
}

// --------------------------------------------------------------------------
// Issue / execute.
// --------------------------------------------------------------------------

void Core::stage_issue() {
  // Visit only entries whose operands are all ready, oldest first. One
  // that still cannot issue — a fence not at the head, a load behind an
  // older store of unknown address — waits on another stage acting; a
  // kStall retry counts as acting (it touches the TLBs and stall counts).
  const std::uint64_t stalls_before = stats_.shadow_stall_cycles;
  int issued = 0;
  for (std::size_t r = 0; r < ready_.size() && issued < config_.issue_width;) {
    const SeqNum seq = ready_[r];
    DynInst* di = find_by_seq(seq);
    assert(di != nullptr && di->state == InstState::kWaiting &&
           di->src1_ready && di->src2_ready);
    // A fence executes only once it is the oldest instruction (its whole
    // ordering purpose).
    if (di->inst.op == OpClass::kFence && head_seq() != seq) {
      ++r;
      continue;
    }
    const Cycle done_cycle = execute(*di);
    if (done_cycle == kNeverCycle) {
      ++r;
      continue;
    }
    di->state = InstState::kIssued;
    // Sorted insert, scanning from the back (the soonest completions).
    // The key comes from registers: reading it back from the entry would
    // wait on the stores execute (and the state update) just made.
    const std::pair<Cycle, SeqNum> done(done_cycle, seq);
    auto pos = completions_.end();
    while (pos != completions_.begin() && *(pos - 1) < done) --pos;
    pos = completions_.insert(pos, done);
    assert((pos == completions_.begin() || *(pos - 1) > done) &&
           (pos + 1 == completions_.end() || done > *(pos + 1)));
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(r));
    --iq_occupancy_;
    if (!di->is_branch()) note_eligible(seq);
    ++issued;
  }
  if (issued > 0 || stats_.shadow_stall_cycles != stalls_before) {
    acted_ = true;
  }
}

Cycle Core::execute(DynInst& di) {
  Cycle latency = config_.alu_latency;

  switch (di.inst.op) {
    case OpClass::kNop:
    case OpClass::kFence:
    case OpClass::kHalt:
    case OpClass::kBranch:
    case OpClass::kJump:
    case OpClass::kBranchIndirect:
    case OpClass::kRet:
      break;
    case OpClass::kAlu:
    case OpClass::kMul:
    case OpClass::kDiv: {
      const std::uint64_t b = di.inst.use_imm
                                  ? static_cast<std::uint64_t>(di.inst.imm)
                                  : di.src2_value;
      di.result = isa::eval_alu(di.inst.alu, di.src1_value, b);
      if (di.inst.op == OpClass::kMul) latency = config_.mul_latency;
      if (di.inst.op == OpClass::kDiv) latency = config_.div_latency;
      break;
    }
    case OpClass::kRdCycle:
      di.result = cycle_;
      break;
    case OpClass::kCall:
      di.result = di.pc + isa::kInstrBytes;  // link value
      break;
    case OpClass::kLoad: {
      di.effective_addr =
          di.src1_value + static_cast<std::uint64_t>(di.inst.imm);

      // Memory ordering: visit the older stores in the store queue. Any
      // older store with an unknown address blocks us (conservative
      // disambiguation); the youngest older store to the same word
      // forwards its data.
      const Addr word = di.effective_addr >> 3;
      const DynInst* forwarding_store = nullptr;
      const SeqNum front_seq = head_seq();
      for (std::size_t i = 0; i < stores_.size() && stores_[i] < di.seq;
           ++i) {
        const DynInst& store =
            rob_[static_cast<std::size_t>(stores_[i] - front_seq)];
        assert(store.is_store() && store.seq == stores_[i] &&
               (i == 0 || stores_[i - 1] < stores_[i]));
        if (store.state == InstState::kWaiting) {
          return kNeverCycle;  // addr unknown
        }
        if ((store.effective_addr >> 3) == word) forwarding_store = &store;
      }
      if (forwarding_store != nullptr) {
        di.result = forwarding_store->src2_value;
        di.store_forwarded = true;
        latency = config_.alu_latency;  // forwarded from the store queue
        break;
      }

      const std::optional<Cycle> translation = translate_data(di);
      if (!translation) return kNeverCycle;  // shadow dTLB full: retry
      if (di.fault == Fault::kUnmapped) {
        di.result = 0;
        latency = config_.hierarchy.memory_latency;
        break;
      }
      const Lookup got =
          lookup_line(Side::kData, di.physical_addr, di.shadow_dline);
      // Forward-progress guarantee for kStall: if this instruction's own
      // page-walker lines are (part of) what fills the table, stalling
      // would deadlock — it waits on entries only its own commit releases.
      // Degrade to drop in that case: the load still gets its value, but
      // nothing will be promoted at commit (§V).
      if (got.source == Source::kFull && di.walker_refs.empty()) {
        ++stats_.shadow_stall_cycles;
        return kNeverCycle;  // retry next cycle; the translation is kept
      }
      // P1: the speculative load observes the real data even when the
      // permission check failed — the check only bites at commit.
      di.result = mem_->read64(di.physical_addr);
      latency = *translation + got.latency;
      break;
    }
    case OpClass::kStore:
    case OpClass::kFlush: {
      di.effective_addr =
          di.src1_value + static_cast<std::uint64_t>(di.inst.imm);
      const std::optional<Cycle> translation = translate_data(di);
      if (!translation) return kNeverCycle;
      latency += *translation;
      break;
    }
  }

  di.done_cycle = cycle_ + std::max<Cycle>(1, latency);
  return di.done_cycle;
}

std::optional<Cycle> Core::translate_data(DynInst& di) {
  if (di.translated || di.fault != Fault::kNone) return 0;  // retry path
  const Lookup got = translate(Side::kData, page_of(di.effective_addr),
                               di.shadow_dtlb, &di);
  if (got.source == Source::kFull) {
    ++stats_.shadow_stall_cycles;
    return std::nullopt;
  }
  if (got.source == Source::kUnmapped) {
    di.fault = Fault::kUnmapped;
    return got.latency;
  }
  di.physical_addr =
      (got.entry.ppage << kPageShift) + page_offset(di.effective_addr);
  di.translated = true;
  // Deferred permission check (P1): record the fault, keep executing.
  if (got.entry.kernel_only && priv_ == memory::PrivLevel::kUser) {
    di.fault = Fault::kPermission;
  }
  return got.latency;
}

Core::Lookup Core::translate(Side side, Addr vpage, int& ref,
                             DynInst* walker) {
  memory::Tlb& tlb = side == Side::kInstr ? itlb_ : dtlb_;
  if (const auto hit = tlb.access(vpage); hit.has_value()) {
    return {Source::kPrimary, 0, *hit};
  }
  shadow::ShadowTlb& table = side == Side::kInstr ? shadow_itlb_ : shadow_dtlb_;
  int id = shadow::ShadowTlb::kNone;
  if (protection_on()) {
    const bool held = ref != DynInst::kNoShadow && table.key(ref) == vpage;
    id = held ? ref : table.acquire_existing(vpage);
  }
  Lookup got;
  if (id != shadow::ShadowTlb::kNone) {
    const auto& payload = table.payload_of(id);
    // A shadow-TLB hit costs one lookup cycle.
    got = {Source::kShadow, 1, {vpage, payload.ppage, payload.kernel_only}};
  } else {
    const Cycle walk = walk_page_table(walker, vpage);
    const auto xlat = page_table_->translate(vpage);
    if (!xlat.present) return {Source::kUnmapped, walk, {}};
    got = {Source::kBelow, walk, {vpage, xlat.ppage, xlat.kernel_only}};
    if (!protection_on()) {
      tlb.fill(got.entry);
      return got;
    }
    id = table.insert(vpage, {xlat.ppage, xlat.kernel_only});
    if (id == shadow::ShadowTlb::kNone &&
        table.config().full_policy == FullPolicy::kStall) {
      got.source = Source::kFull;
      return got;
    }
  }
  if (id != ref) {
    if (ref != DynInst::kNoShadow) table.release(ref);
    ref = id;  // kNone under kDrop: the translation goes unshadowed
  }
  return got;
}

Core::Lookup Core::lookup_line(Side side, Addr paddr, int& ref) {
  if (!protection_on()) {
    const auto out =
        hierarchy_.timed_access(paddr, side, CacheHierarchy::Fill::kYes);
    return {out.l1_hit() ? Source::kPrimary : Source::kBelow, out.latency, {}};
  }
  // Primary-first lookup order, as in the design: the L1 is checked, then
  // the shadow structure, then the lower levels — with no fills and no
  // replacement-state updates anywhere on this speculative path.
  const Addr line = line_of(paddr);
  shadow::ShadowCache& table =
      side == Side::kInstr ? shadow_icache_ : shadow_dcache_;
  if (ref != DynInst::kNoShadow && table.key(ref) == line) {
    return {Source::kShadow, config_.shadow_hit_latency, {}};  // held already
  }
  memory::Cache& l1 =
      side == Side::kInstr ? hierarchy_.l1i() : hierarchy_.l1d();
  if (l1.access(line, /*update_replacement=*/false)) {
    return {Source::kPrimary, l1.config().hit_latency, {}};
  }
  Lookup got{Source::kShadow, config_.shadow_hit_latency, {}};
  int id = table.acquire_existing(line);
  if (id == shadow::ShadowCache::kNone) {
    got.source = Source::kBelow;
    got.latency = hierarchy_.shared()
                      .access_below_l1(line, /*fill=*/false,
                                       /*count_stats=*/true, core_id_)
                      .latency;
    id = table.insert(line, {});
    if (id == shadow::ShadowCache::kNone &&
        table.config().full_policy == FullPolicy::kStall) {
      got.source = Source::kFull;
      return got;
    }
  }
  if (ref != DynInst::kNoShadow) table.release(ref);
  ref = id;  // kNone under kDrop: the update is lost (§V)
  return got;
}

Cycle Core::walk_page_table(DynInst* di, Addr vpage) {
  Cycle latency = 0;
  Addr walk_lines[memory::PageTable::kWalkLevels];
  page_table_->walk_addresses(vpage, walk_lines);
  // An instruction's walk holds its lines until the instruction settles;
  // a fetch walk (no instruction yet) lets them go at once.
  const auto hold = [&](int id) {
    if (di != nullptr) {
      di->walker_refs.push_back(id);
    } else {
      shadow_dcache_.release(id);
    }
  };
  for (const Addr entry_addr : walk_lines) {
    if (!protection_on()) {
      latency += hierarchy_
                     .timed_access(entry_addr, Side::kData,
                                   CacheHierarchy::Fill::kYes,
                                   /*count_stats=*/false)
                     .latency;
      continue;
    }
    // SafeSpec: walker lines ride the d-cache shadow like any speculative
    // load (§IV-A). Full table => drop (walks never stall the pipeline).
    const Addr line = line_of(entry_addr);
    if (const auto id = shadow_dcache_.acquire_existing(line, false);
        id != shadow::ShadowCache::kNone) {
      latency += config_.shadow_hit_latency;
      hold(id);
      continue;
    }
    const auto outcome = hierarchy_.timed_access(
        entry_addr, Side::kData, CacheHierarchy::Fill::kNo,
        /*count_stats=*/false);
    latency += outcome.latency;
    if (outcome.level != memory::HitLevel::kL1) {
      const auto id = shadow_dcache_.insert(line, {});
      if (id != shadow::ShadowCache::kNone) hold(id);
    }
  }
  return latency;
}

// --------------------------------------------------------------------------
// Dispatch.
// --------------------------------------------------------------------------

void Core::bind_operand(SeqNum consumer, RegIndex reg, std::uint64_t& value,
                        bool& ready, SeqNum& producer) {
  const SeqNum prod = rename_[reg];
  if (prod == 0) {
    value = regs_[reg];
    ready = true;
    return;
  }
  DynInst* p = find_by_seq(prod);
  if (p != nullptr && p->state == InstState::kDone) {
    value = p->result;
    ready = true;
    return;
  }
  ready = false;
  producer = prod;
  // Register on the producer's wakeup list so completion wakes exactly
  // its consumers instead of scanning the younger ROB suffix.
  if (p != nullptr) p->note_dependent(consumer);
}

DynInst* Core::find_by_seq(SeqNum seq) {
  // A seq below the head wraps to an offset past the end.
  const SeqNum offset = seq - head_seq();
  if (offset >= rob_.size()) return nullptr;
  DynInst& di = rob_[static_cast<std::size_t>(offset)];
  assert(di.seq == seq && "ROB seqs must be contiguous");
  return &di;
}

void Core::wake_dependents(const DynInst& producer) {
  // Delivers the result to one candidate consumer; the operand that
  // completes its set moves it onto the ready list (an entry with an
  // unready operand is always kWaiting).
  const auto deliver = [&](DynInst& di) {
    if (di.src1_ready && di.src2_ready) return;
    if (!di.src1_ready && di.src1_producer == producer.seq) {
      di.src1_value = producer.result;
      di.src1_ready = true;
    }
    if (!di.src2_ready && di.src2_producer == producer.seq) {
      di.src2_value = producer.result;
      di.src2_ready = true;
    }
    if (di.src1_ready && di.src2_ready) {
      ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), di.seq),
                    di.seq);
    }
  };
  // Common case: visit exactly the consumers that bound an operand to
  // this producer at dispatch. A recorded seq can be stale (its consumer
  // squashed and the seq reused after the rewind), so each entry is
  // re-validated against the consumer's recorded producer — the same
  // predicate the suffix scan applies, which makes a stale entry either
  // inert or a genuine dependent that re-bound under the reused seq.
  if (!producer.dep_overflow) {
    for (int i = 0; i < producer.dep_count; ++i) {
      if (DynInst* di = find_by_seq(producer.dependent(i))) deliver(*di);
    }
    return;
  }
  // Overflow (more dependents than the inline list holds): walk the
  // younger ROB suffix, starting one past the producer's slot.
  for (std::size_t i =
           static_cast<std::size_t>(producer.seq - head_seq()) + 1;
       i < rob_.size(); ++i) {
    deliver(rob_[i]);
  }
}

void Core::stage_dispatch() {
  for (int n = 0; n < config_.issue_width; ++n) {
    if (fetch_queue_.empty()) return;
    FetchedInst& fi = fetch_queue_.front();
    if (fi.ready_at > cycle_) return;
    if (fence_active_) return;
    if (rob_full() || iq_occupancy_ >= config_.iq_entries) return;
    if (fi.inst.op == OpClass::kLoad &&
        loads_in_flight_ >= config_.ldq_entries) {
      return;
    }
    if (fi.inst.op == OpClass::kStore &&
        static_cast<int>(stores_.size()) >= config_.stq_entries) {
      return;
    }

    DynInst& di = rob_.emplace_back();
    di.seq = next_seq_++;
    di.pc = fi.pc;
    di.inst = fi.inst;
    di.predicted_taken = fi.predicted_taken;
    di.predicted_next = fi.predicted_next;
    di.target_known = fi.predicted_next != 0 || !fi.inst.is_branch();
    di.shadow_iline = fi.shadow_iline;
    di.shadow_itlb = fi.shadow_itlb;

    // Operand binding. Which sources an op reads:
    const bool reads_src1 =
        fi.inst.op == OpClass::kAlu || fi.inst.op == OpClass::kMul ||
        fi.inst.op == OpClass::kDiv || fi.inst.op == OpClass::kLoad ||
        fi.inst.op == OpClass::kStore || fi.inst.op == OpClass::kBranch ||
        fi.inst.op == OpClass::kBranchIndirect || fi.inst.op == OpClass::kRet ||
        fi.inst.op == OpClass::kFlush;
    const bool reads_src2 =
        (fi.inst.op == OpClass::kAlu || fi.inst.op == OpClass::kMul ||
         fi.inst.op == OpClass::kDiv) && !fi.inst.use_imm;
    const bool reads_src2_always =
        fi.inst.op == OpClass::kStore || fi.inst.op == OpClass::kBranch;

    if (reads_src1) {
      bind_operand(di.seq, fi.inst.src1, di.src1_value, di.src1_ready,
                   di.src1_producer);
    }
    if (reads_src2 || reads_src2_always) {
      bind_operand(di.seq, fi.inst.src2, di.src2_value, di.src2_ready,
                   di.src2_producer);
    }

    if (di.inst.writes_register()) rename_[di.inst.dst] = di.seq;
    if (di.inst.op == OpClass::kBranch ||
        di.inst.op == OpClass::kBranchIndirect ||
        di.inst.op == OpClass::kRet) {
      unresolved_branches_.push_back(di.seq);  // seqs ascend: stays sorted
    }
    if (di.is_load()) ++loads_in_flight_;
    if (di.is_store()) {
      assert(stores_.empty() || stores_.back() < di.seq);
      stores_.push_back(di.seq);
    }
    if (di.inst.op == OpClass::kFence) fence_active_ = true;
    ++iq_occupancy_;
    // The newest seq: appending keeps ready_ sorted.
    if (di.src1_ready && di.src2_ready) ready_.push_back(di.seq);

    fetch_queue_.pop_front();
    acted_ = true;
  }
}

// --------------------------------------------------------------------------
// Fetch.
// --------------------------------------------------------------------------

void Core::stage_fetch() {
  if (halted_ || fetch_stalled_) return;
  if (cycle_ < fetch_busy_until_) return;
  if (static_cast<int>(fetch_queue_.size()) >= kFetchBufferCap) return;
  acted_ = true;  // every path below touches the iTLB or stalls fetch

  Addr last_line_touched = ~Addr{0};

  for (int n = 0; n < config_.fetch_width; ++n) {
    const isa::Instruction* inst = fetch_decode(fetch_pc_);
    if (inst == nullptr) {
      // Speculated (or fell) into unmapped text: stall until redirected.
      fetch_stalled_ = true;
      break;
    }

    // ---- iTLB ----------------------------------------------------------
    // An i-side page walk is charged as a fetch bubble; fetch resumes
    // after it and finds the translation in the iTLB or the held ref.
    const Lookup xlat =
        translate(Side::kInstr, page_of(fetch_pc_), pending_itlb_, nullptr);
    if (xlat.source == Source::kUnmapped) {
      fetch_stalled_ = true;
      break;
    }
    if (xlat.source == Source::kFull) {
      fetch_busy_until_ = cycle_ + 1;  // retry next cycle
      break;
    }
    if (xlat.source == Source::kBelow) {
      fetch_busy_until_ = cycle_ + std::max<Cycle>(1, xlat.latency);
      break;
    }

    // ---- i-cache ---------------------------------------------------------
    const Addr fetch_paddr =
        (xlat.entry.ppage << kPageShift) + page_offset(fetch_pc_);
    const Addr line = line_of(fetch_paddr);
    // Per-instruction accounting (Figs 14/15): every fetched instruction
    // is served by exactly one of L1I, the shadow i-cache, or a lower
    // level. Several instructions usually share one line — the spatial
    // locality that makes the shadow i-cache's share of hits high while
    // a line is still speculative.
    ++stats_.fetch_accesses;
    if (line != last_line_touched) {
      last_line_touched = line;
      const Lookup got = lookup_line(Side::kInstr, fetch_paddr, pending_iline_);
      if (got.source == Source::kFull) {
        --stats_.fetch_accesses;  // retried next cycle
        fetch_busy_until_ = cycle_ + 1;
        break;
      }
      if (got.source == Source::kBelow) {
        ++stats_.fetch_misses;
        fetch_busy_until_ = cycle_ + got.latency;
        break;  // resume once the line is in the L1I or the held ref
      }
      // A shadow hit costs no bubble (a lookup-table read).
      ++(got.source == Source::kShadow ? stats_.fetch_shadow_hits
                                       : stats_.fetch_l1i_hits);
    } else {
      // Subsequent instruction from the same fetch line; the previous one
      // took any pending i-line ref with it.
      assert(pending_iline_ == DynInst::kNoShadow);
      if (protection_on()) {
        pending_iline_ = shadow_icache_.acquire_existing(line);  // counts hit
      }
      if (pending_iline_ != DynInst::kNoShadow) {
        ++stats_.fetch_shadow_hits;
      } else {
        hierarchy_.l1i().access(line, /*update_replacement=*/!protection_on());
        ++stats_.fetch_l1i_hits;
      }
    }

    // ---- decode + predict -----------------------------------------------
    FetchedInst& fi = fetch_queue_.emplace_back();
    fi.pc = fetch_pc_;
    fi.inst = *inst;
    fi.ready_at = cycle_ + static_cast<Cycle>(config_.fetch_to_dispatch_delay);
    fi.shadow_iline = pending_iline_;
    fi.shadow_itlb = pending_itlb_;
    pending_iline_ = DynInst::kNoShadow;
    pending_itlb_ = DynInst::kNoShadow;
    ++stats_.fetched_instrs;

    if (inst->op == OpClass::kHalt) {
      fetch_stalled_ = true;  // nothing sensible follows a halt
      break;
    }
    if (inst->is_branch()) {
      const auto pred = predictor_.predict(fetch_pc_, *inst);
      fi.predicted_taken = pred.taken;
      if (!pred.target_known) {
        fi.predicted_next = 0;  // no target: stall until resolution
        fetch_stalled_ = true;
        break;
      }
      fi.predicted_next =
          pred.taken ? pred.target : fetch_pc_ + isa::kInstrBytes;
      fetch_pc_ = fi.predicted_next;
      if (pred.taken) break;  // taken-branch fetch break
      continue;
    }

    fi.predicted_next = fetch_pc_ + isa::kInstrBytes;
    fetch_pc_ += isa::kInstrBytes;
  }
}

// --------------------------------------------------------------------------
// Phase control.
// --------------------------------------------------------------------------

void Core::restart_at(Addr pc) {
  for (DynInst& di : rob_) release_shadow(di);
  rob_.clear();
  redirect_fetch(pc);
  unresolved_branches_.clear();
  completions_.clear();
  ready_.clear();
  iq_occupancy_ = 0;
  promote_scan_ = 0;
  promote_events_.clear();
  std::fill(std::begin(rename_), std::end(rename_), SeqNum{0});
  loads_in_flight_ = 0;
  stores_.clear();
  fence_active_ = false;
  halted_ = false;
}

Addr Core::next_commit_pc() const {
  if (!rob_.empty()) return rob_.front().pc;
  if (!fetch_queue_.empty()) return fetch_queue_.front().pc;
  return fetch_pc_;
}

void Core::restore_arch(const std::array<std::uint64_t, kNumArchRegs>& regs,
                        Addr pc) {
  for (int r = 0; r < kNumArchRegs; ++r) {
    set_reg(static_cast<RegIndex>(r), regs[static_cast<std::size_t>(r)]);
  }
  restart_at(pc);
}

}  // namespace safespec::cpu
