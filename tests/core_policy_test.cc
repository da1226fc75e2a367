// Focused behavioural tests of the SafeSpec policies inside the core:
// promotion timing, TLB isolation, store-queue ordering, and control-flow
// corner cases that the end-to-end attack tests exercise only indirectly.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>

#include "cpu/dyn_inst.h"
#include "isa/program.h"
#include "safespec/policy.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "sim/simulator.h"

namespace safespec {
namespace {

using isa::AluOp;
using isa::CondOp;
using isa::ProgramBuilder;

sim::Simulator make_sim(isa::Program program, const std::string& policy) {
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.policy = policy;
  sim::Simulator s(config, std::move(program));
  s.map_text();
  return s;
}

TEST(TlbIsolation, SpeculativeTranslationStaysOutOfPrimaryDtlbUnderWFC) {
  // A committed load must promote its translation; under WFC nothing may
  // appear in the primary dTLB before that commit. After the run the
  // translation must be present (it committed).
  constexpr Addr kData = 0x700000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).load(2, 1, 0).fence().halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  EXPECT_FALSE(s.core().dtlb().probe(page_of(kData)));
  s.run();
  EXPECT_TRUE(s.core().dtlb().probe(page_of(kData)));
  EXPECT_EQ(s.core().shadow_dtlb().live_count(), 0);
}

TEST(TlbIsolation, SquashedTranslationNeverReachesPrimaryDtlb) {
  // A load executed only on the wrong path of a mispredicted branch must
  // leave no dTLB entry under WFC (it does leave one on the baseline —
  // that asymmetry IS the dTLB covert channel of Table IV).
  constexpr Addr kWrongPage = 0x710000;
  constexpr Addr kSlow = 0x720000;
  for (const std::string policy : {"baseline", "WFC"}) {
    ProgramBuilder b(0x1000);
    b.movi(1, kWrongPage).movi(2, kSlow);
    b.flush(2, 0).fence();
    b.load(3, 2, 0);                              // slow condition source
    b.branch(CondOp::kGeu, 3, kZeroReg, "skip");  // always taken; predicted
                                                  // not-taken (cold counters
                                                  // predict weakly-not-taken)
    b.load(4, 1, 0);                              // wrong-path only
    b.label("skip").fence().halt();
    auto prog = b.build();
    prog.set_entry(0x1000);
    auto s = make_sim(std::move(prog), policy);
    s.map_region(kWrongPage, kPageSize);
    s.map_region(kSlow, kPageSize);
    s.run();
    const bool present = s.core().dtlb().probe(page_of(kWrongPage));
    if (policy == "baseline") {
      EXPECT_TRUE(present) << "baseline should leak the dTLB entry";
    } else {
      EXPECT_FALSE(present) << "WFC must annul the speculative translation";
    }
  }
}

TEST(CacheIsolation, WrongPathLineLeaksOnBaselineOnlyDCache) {
  constexpr Addr kWrongLine = 0x730000;
  constexpr Addr kSlow = 0x740000;
  for (const std::string policy : {"baseline", "WFC"}) {
    ProgramBuilder b(0x1000);
    b.movi(1, kWrongLine).movi(2, kSlow);
    b.flush(2, 0).fence();
    b.load(3, 2, 0);
    b.branch(CondOp::kGeu, 3, kZeroReg, "skip");
    b.load(4, 1, 0);  // wrong-path only
    b.label("skip").fence().halt();
    auto prog = b.build();
    prog.set_entry(0x1000);
    auto s = make_sim(std::move(prog), policy);
    s.map_region(kWrongLine, kPageSize);
    s.map_region(kSlow, kPageSize);
    s.run();
    const bool resident =
        s.core().hierarchy().resident_l1(line_of(kWrongLine),
                                         memory::Side::kData) ||
        s.core().hierarchy().resident_l3(line_of(kWrongLine));
    EXPECT_EQ(resident, policy == "baseline");
  }
}

TEST(StoreQueue, YoungestMatchingStoreForwards) {
  constexpr Addr kData = 0x750000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.movi(2, 11).store(2, 1, 0);
  b.movi(3, 22).store(3, 1, 0);  // younger store, same word
  b.load(4, 1, 0);               // must see 22
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  EXPECT_EQ(s.core().reg(4), 22u);
  EXPECT_EQ(s.peek(kData), 22u);
}

TEST(StoreQueue, DifferentWordsDoNotForward) {
  constexpr Addr kData = 0x760000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.movi(2, 11).store(2, 1, 0);
  b.load(4, 1, 8);  // different word: memory value (0), not 11
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  EXPECT_EQ(s.core().reg(4), 0u);
}

TEST(ControlFlow, NestedCallsReturnInOrder) {
  // The micro-ISA has one link register, so nested calls save/restore it
  // through a scratch register, as real RISC calling conventions do.
  ProgramBuilder b(0x1000);
  b.call("outer").movi(10, 1).halt();
  b.label("outer");
  b.alu(AluOp::kAdd, 20, isa::kLinkReg, kZeroReg);  // save ra
  b.call("inner");
  b.alu(AluOp::kAdd, isa::kLinkReg, 20, kZeroReg);  // restore ra
  b.alui(AluOp::kAdd, 11, 12, 1).ret();
  b.label("inner").movi(12, 41).ret();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  const auto r = s.run();
  EXPECT_EQ(r.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(s.core().reg(10), 1u);
  EXPECT_EQ(s.core().reg(11), 42u);
  EXPECT_EQ(s.core().reg(12), 41u);
}

TEST(ControlFlow, RepeatedCallsFromManySitesUseRsbCorrectly) {
  // 24 call sites to one function (the micro-ISA has a single link
  // register, so calls don't nest) — exercises RSB push/pop pairing at
  // distinct return addresses well past the 16-entry depth.
  ProgramBuilder b(0x1000);
  for (int i = 0; i < 24; ++i) b.call("fn");
  b.halt();
  b.label("fn").alui(AluOp::kAdd, 5, 5, 1).ret();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  const auto r = s.run(2'000'000);
  EXPECT_EQ(r.stop, cpu::StopReason::kHalted);
  EXPECT_EQ(s.core().reg(5), 24u);
}

TEST(Policies, WfbPromotesAfterBranchResolutionBeforeCommit) {
  // Construct: a branch whose condition is slow, followed by a load. The
  // load's line must appear in the caches under WFB once the branch
  // resolves, even while the branch (and load) cannot yet commit because
  // an even slower *older* load blocks the ROB head.
  constexpr Addr kBlock = 0x770000;   // very slow head-of-ROB load
  constexpr Addr kProbe = 0x780000;   // the line whose promotion we watch
  ProgramBuilder b(0x1000);
  b.movi(1, kBlock).movi(2, kProbe);
  b.flush(1, 0).fence();
  b.load(3, 1, 0);                          // slow: blocks commit
  b.branch(CondOp::kGeu, kZeroReg, kZeroReg, "next");  // resolves fast
  b.label("next");
  b.load(4, 2, 0);                          // promotable under WFB
  b.fence().halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFB");
  s.map_region(kBlock, kPageSize);
  s.map_region(kProbe, kPageSize);
  // Step manually and look for the probe line becoming resident while
  // instructions are still in flight (committed_instrs small).
  bool promoted_before_halt = false;
  for (int i = 0; i < 20000 && !s.core().halted(); ++i) {
    s.core().step();
    if (!s.core().halted() &&
        s.core().hierarchy().resident_l3(line_of(kProbe))) {
      promoted_before_halt = true;
      break;
    }
  }
  EXPECT_TRUE(promoted_before_halt)
      << "WFB must promote once older branches resolve, pre-commit";
}

TEST(Policies, WfbStillPromotesAtResolutionAfterFaultRecovery) {
  // Regression: a committed fault squashes the (already-swept) wrong
  // path and rewinds instruction numbering; the promotion sweep's
  // progress hint must be clamped with it, or every handler-path
  // instruction reuses a seq the sweep believes it has already promoted
  // — silently degrading WFB to commit-time (WFC) promotion after any
  // fault recovery.
  constexpr Addr kKernel = 0x700000;  // kernel-only: the committed fault
  constexpr Addr kBlock = 0x7B0000;   // slow head-of-handler load
  constexpr Addr kProbe = 0x7C0000;   // handler line whose timing we watch
  ProgramBuilder b(0x1000);
  b.movi(1, kKernel);
  b.load(2, 1, 0);  // faults at commit; speculation continues past it
  // Wrong-path window: enough promotable work to advance the sweep past
  // the faulting load before it commits.
  for (int i = 0; i < 12; ++i) b.alui(AluOp::kAdd, 7, 7, 1);
  b.halt();  // wrong path only
  b.at(0x8000).label("handler");
  // No fences here: the loads must sit in the handler's *first* dispatch
  // group, where their reused seqs land below the stale hint.
  b.movi(3, kBlock).movi(4, kProbe);
  b.load(5, 3, 0);  // cold miss to memory: blocks the commit stream
  b.load(6, 4, 0);  // must promote at resolution, pre-commit
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  prog.set_fault_handler(0x8000);
  auto s = make_sim(std::move(prog), "WFB");
  s.map_region(kKernel, kPageSize, memory::PagePerm::kKernel);
  s.map_region(kBlock, kPageSize);
  s.map_region(kProbe, kPageSize);
  bool promoted_before_commit = false;
  for (int i = 0; i < 20000 && !s.core().halted(); ++i) {
    s.core().step();
    // Commits before the blocker retires: pre-fault movi + two handler
    // movis = 3. The probe line appearing while the blocker still holds
    // the commit stream proves resolution-time promotion survived the
    // recovery.
    if (s.core().stats().committed_instrs < 4 &&
        s.core().hierarchy().resident_l3(line_of(kProbe))) {
      promoted_before_commit = true;
      break;
    }
  }
  EXPECT_TRUE(promoted_before_commit)
      << "fault recovery must not disable WFB's resolution-time promotion";
}

TEST(Policies, WfcDoesNotPromoteThatEarly) {
  // Same construction under WFC: as long as the slow older load blocks
  // commit, the probe line must NOT be in the primary caches.
  constexpr Addr kBlock = 0x790000;
  constexpr Addr kProbe = 0x7A0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kBlock).movi(2, kProbe);
  b.flush(1, 0).fence();
  b.load(3, 1, 0);
  b.branch(CondOp::kGeu, kZeroReg, kZeroReg, "next");
  b.label("next");
  b.load(4, 2, 0);
  b.fence().halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kBlock, kPageSize);
  s.map_region(kProbe, kPageSize);
  bool promoted_while_blocked = false;
  for (int i = 0; i < 20000 && !s.core().halted(); ++i) {
    s.core().step();
    // While fewer than 6 instructions committed, the slow load hasn't
    // cleared the head; the probe line must still be shadow-only.
    if (s.core().stats().committed_instrs < 6 &&
        s.core().hierarchy().resident_l3(line_of(kProbe))) {
      promoted_while_blocked = true;
      break;
    }
  }
  EXPECT_FALSE(promoted_while_blocked);
}

TEST(Flush, CommittedClflushEvictsEveryLevel) {
  constexpr Addr kData = 0x7B0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.load(2, 1, 0).fence();   // line resident everywhere
  b.flush(1, 0).fence();
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  EXPECT_FALSE(s.core().hierarchy().resident_l1(line_of(kData),
                                                memory::Side::kData));
  EXPECT_FALSE(s.core().hierarchy().resident_l2(line_of(kData)));
  EXPECT_FALSE(s.core().hierarchy().resident_l3(line_of(kData)));
}

/// A machine with `config`'s fields (Table I by default) running
/// `program` under `policy_name`, its text mapped.
std::unique_ptr<sim::Simulator> make_policy_sim(
    const isa::Program& program, const std::string& policy_name,
    cpu::CoreConfig config = sim::machine_preset("skylake").core) {
  config.policy = policy_name;
  auto s = std::make_unique<sim::Simulator>(config, program);
  s->map_text();
  return s;
}

// ---- commit_xor forwarding semantics --------------------------------------
// The commit_xor mutation hook XORs a constant into every *architectural*
// register writeback — and nothing else. In-flight consumers (operand
// capture at dispatch, wakeup after completion, branch resolution, store
// data) must observe the producer's raw pre-XOR result; only a consumer
// that reads the committed register file sees the XORed value. These
// tests pin that contract across every registered policy so the scheduler
// can be restructured without silently changing forwarding semantics.

/// Runs `program` under `policy_name` with commit_xor armed; returns the
/// simulator after the run for register/memory inspection.
std::unique_ptr<sim::Simulator> run_with_commit_xor(
    const isa::Program& program, const std::string& policy_name,
    std::uint64_t commit_xor) {
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.mutation.commit_xor = commit_xor;
  return make_policy_sim(program, policy_name, config);
}

constexpr std::uint64_t kXor = 0x5A5AF00D0000FFFFULL;

TEST(CommitXorForwarding, TightAluChainForwardsPreXorResults) {
  // Adjacent dependent ALU ops dispatch together, so every consumer binds
  // its operand from the in-flight producer: the chain computes on raw
  // results (7, 8, 9) and each commit XORs exactly once.
  ProgramBuilder b(0x1000);
  b.movi(1, 7);
  b.alui(AluOp::kAdd, 2, 1, 1);
  b.alui(AluOp::kAdd, 3, 2, 1);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 7u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(2), 8u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(3), 9u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, LoadWakeupForwardsPreXorResult) {
  // The wakeup path proper: a cold load completes long after its
  // dependents dispatched, so they sit in the issue queue and are woken
  // by the completing producer — with the raw loaded value, not the
  // XORed one the register file will hold.
  constexpr Addr kData = 0x7D0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.load(2, 1, 0);               // cold miss: wakes r3/r4 much later
  b.alui(AluOp::kAdd, 3, 2, 1);
  b.alu(AluOp::kAdd, 4, 2, 2);   // both operands from the same producer
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    s->map_region(kData, kPageSize);
    s->poke(kData, 0x1000u);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(2), 0x1000u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(3), 0x1001u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(4), 0x2000u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, BranchResolvesOnPreXorOperands) {
  // r1's raw result is kXor (nonzero) while its committed value is 0;
  // the branch must resolve on the raw value and be taken.
  ProgramBuilder b(0x1000);
  b.movi(1, static_cast<std::int64_t>(kXor));
  b.branch(CondOp::kNe, 1, kZeroReg, "taken");
  b.movi(2, 111);  // fall-through: only reached on post-XOR operands
  b.halt();
  b.label("taken").movi(3, 222).halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 0u) << policy;
    EXPECT_EQ(s->core().reg(2), 0u) << policy;
    EXPECT_EQ(s->core().reg(3), 222u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, StoreDataAndStoreForwardingUsePreXorValues) {
  // Store data binds from the in-flight producer (pre-XOR), the store
  // writes that raw value to memory at commit (memory is never XORed),
  // and a younger load forwarded from the store queue sees it too.
  constexpr Addr kData = 0x7E0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData);
  b.movi(2, 0x77);
  b.store(2, 1, 0);
  b.load(3, 1, 0);  // forwarded from the in-flight store
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    s->map_region(kData, kPageSize);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->peek(kData), 0x77u) << policy;
    EXPECT_EQ(s->core().reg(3), 0x77u ^ kXor) << policy;
  }
}

TEST(CommitXorForwarding, PostCommitConsumersReadXoredRegisterFile) {
  // A fence drains the pipeline, so the consumer dispatches after the
  // producer committed and its rename entry cleared: it reads the
  // architectural (post-XOR) value — the one place the XOR is visible to
  // a dependent.
  ProgramBuilder b(0x1000);
  b.movi(1, 7);
  b.fence();
  b.alui(AluOp::kAdd, 2, 1, 1);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = run_with_commit_xor(prog, policy, kXor);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 7u ^ kXor) << policy;
    EXPECT_EQ(s->core().reg(2), ((7u ^ kXor) + 1u) ^ kXor) << policy;
  }
}

// ---- store-queue ordering ----------------------------------------------------
// A load's disambiguation visits only the store-queue entries older than
// it: any with an unknown address blocks it, and the youngest one to the
// same word forwards its data. These cases pin that ordering — including
// across a squash that rewinds seqs and a full queue — under every
// registered policy.

TEST(StoreQueue, YoungerStoreNeverForwardsToOlderLoad) {
  // The load's address waits on a cold miss, so the younger store to the
  // same word has issued, its address known, long before the load does.
  constexpr Addr kData = 0x7F0000;
  constexpr Addr kSlow = 0x7F1000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).movi(2, kSlow);
  b.load(3, 2, 0);              // cold miss: 0
  b.alu(AluOp::kAdd, 4, 1, 3);  // kData, known only after the miss
  b.load(5, 4, 0);              // the older load
  b.movi(6, 0x33).store(6, 1, 0);  // the younger store, same word
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = make_policy_sim(prog, policy);
    s->map_region(kData, kPageSize);
    s->map_region(kSlow, kPageSize);
    s->poke(kData, 0x55);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(5), 0x55u) << policy << ": reads memory";
    EXPECT_EQ(s->peek(kData), 0x33u) << policy;
  }
}

TEST(StoreQueue, LoadWaitsForOlderStoreAddressThenForwards) {
  // The older store's base register comes from a cold-missing load, so
  // its address is unknown while the load's is ready at once. The load
  // must wait for it, then take its data: reading memory early would see
  // the old value, since the store writes memory only at commit.
  constexpr Addr kData = 0x7F2000;
  constexpr Addr kPtr = 0x7F3000;
  ProgramBuilder b(0x1000);
  b.movi(1, kPtr);
  b.load(2, 1, 0);                 // cold miss: kData
  b.movi(3, 0x99).store(3, 2, 0);  // address known only after the miss
  b.movi(4, kData).load(5, 4, 0);  // same word, address ready at once
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = make_policy_sim(prog, policy);
    s->map_region(kData, kPageSize);
    s->map_region(kPtr, kPageSize);
    s->poke(kPtr, kData);
    s->poke(kData, 0x11);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(5), 0x99u) << policy << ": forwarded";
    EXPECT_EQ(s->peek(kData), 0x99u) << policy;
  }
}

TEST(StoreQueue, SquashedWrongPathStoresNeitherForwardNorBlock) {
  // A mispredicted branch's wrong path holds two stores to the load's
  // word: one with a known address (it would forward) and one whose base
  // comes from a cold miss still in flight at the squash (it would
  // block). After the rewind the correct path reuses their seqs, the
  // load landing on the second store's; it must read memory's value.
  // With a two-entry STQ the squash must also free both entries, or the
  // correct path's own store could never dispatch.
  constexpr Addr kData = 0x7F4000;
  constexpr Addr kSlow = 0x7F5000;
  constexpr Addr kChase = 0x7F6000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).movi(2, kSlow).movi(7, 0xBAD);
  b.load(3, 2, 0);        // cold miss: the branch condition (0)
  b.load(10, 3, kChase);  // second miss, issued with the branch: kData
  b.branch(CondOp::kGeu, 3, kZeroReg, "skip");  // always taken; cold
                                                // counters predict not
  b.store(7, 1, 0);   // wrong path, address known
  b.store(7, 10, 0);  // wrong path, address unknown at the squash
  b.halt();
  b.label("skip").movi(9, 1);
  b.load(4, 1, 0);   // reuses the second wrong-path store's seq
  b.store(9, 1, 8);  // the correct path's store, to the next word
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  const cpu::CoreConfig table1 = sim::machine_preset("skylake").core;
  for (const auto& policy : policy::registered_policy_names()) {
    for (const int stq_entries : {table1.stq_entries, 2}) {
      cpu::CoreConfig config = table1;
      config.stq_entries = stq_entries;
      auto s = make_policy_sim(prog, policy, config);
      s->map_region(kData, kPageSize);
      s->map_region(kSlow, kPageSize);
      s->map_region(kChase, kPageSize);
      s->poke(kChase, kData);
      s->poke(kData, 0x55);
      const std::string cell = policy + " stq=" + std::to_string(stq_entries);
      ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << cell;
      EXPECT_GE(s->core().stats().mispredicts, 1u) << cell;
      EXPECT_EQ(s->core().reg(10), kData) << cell;
      EXPECT_EQ(s->core().reg(4), 0x55u) << cell << ": reads memory";
      EXPECT_EQ(s->peek(kData), 0x55u) << cell;
      EXPECT_EQ(s->peek(kData + 8), 1u) << cell;
    }
  }
}

TEST(StoreQueue, FullStoreQueueStallsDispatchAndDrainsInOrder) {
  // Eight stores queue up behind a cold-missing load that holds the
  // commit stream. With a two-entry STQ the third store stalls dispatch,
  // so the run takes longer than with Table I's 56 entries; either way
  // every store reaches memory exactly once, in program order.
  constexpr Addr kData = 0x7F7000;
  constexpr Addr kSlow = 0x7F8000;
  constexpr int kStores = 8;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).movi(2, kSlow);
  b.load(3, 2, 0);
  for (int i = 0; i < kStores; ++i) b.movi(4, i + 1).store(4, 1, 8 * i);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  // Steps cycle by cycle, checking after each one that the stored words
  // fill in program order; returns the run's cycle count.
  const auto run_checking_order = [&](const std::string& policy,
                                      int stq_entries) {
    cpu::CoreConfig config = sim::machine_preset("skylake").core;
    config.stq_entries = stq_entries;
    auto s = make_policy_sim(prog, policy, config);
    s->map_region(kData, kPageSize);
    s->map_region(kSlow, kPageSize);
    const auto word = [&](int i) {
      return s->peek(kData + 8 * static_cast<Addr>(i));
    };
    int written = 0;
    bool in_order = true;
    for (int i = 0; i < 20000 && !s->core().halted(); ++i) {
      s->core().step();
      int prefix = 0;
      while (prefix < kStores && word(prefix) != 0) ++prefix;
      for (int j = prefix; j < kStores; ++j) in_order &= word(j) == 0;
      in_order &= prefix >= written;
      written = prefix;
    }
    EXPECT_TRUE(s->core().halted()) << policy;
    EXPECT_TRUE(in_order) << policy << " stq=" << stq_entries;
    for (int i = 0; i < kStores; ++i) {
      EXPECT_EQ(word(i), static_cast<std::uint64_t>(i + 1)) << policy;
    }
    EXPECT_EQ(s->core().stats().committed_stores,
              static_cast<std::uint64_t>(kStores))
        << policy;
    return s->core().stats().cycles;
  };
  for (const auto& policy : policy::registered_policy_names()) {
    const Cycle full_stq = run_checking_order(policy, 2);
    const Cycle table1 = run_checking_order(
        policy, sim::machine_preset("skylake").core.stq_entries);
    EXPECT_GT(full_stq, table1) << policy << ": dispatch stalled";
  }
}

// ---- compact DynInst encodings ------------------------------------------------
// A producer records its in-flight consumers as seq offsets (at most
// DynInst::kMaxDeps, then a younger-suffix scan), and a load's page-walker
// refs live inline up to WalkerRefs::kInline, then in an overflow vector.
// These cases reach the fallbacks and the stale-offset re-validation.

/// The registers a FunctionalEngine run of `program` ends with, over
/// copies of `s`'s memory and page table as they stand.
std::array<std::uint64_t, kNumArchRegs> functional_regs(
    const isa::Program& program, sim::Simulator& s) {
  memory::MainMemory mem = s.memory();
  memory::PageTable page_table = s.page_table();
  sim::FunctionalEngine engine(&program, &mem, &page_table);
  EXPECT_EQ(engine.run(100'000), cpu::StopReason::kHalted);
  std::array<std::uint64_t, kNumArchRegs> regs{};
  for (int r = 0; r < kNumArchRegs; ++r) {
    regs[static_cast<std::size_t>(r)] = engine.reg(static_cast<RegIndex>(r));
  }
  return regs;
}

/// Runs `s` to its halt and compares every register with `expected`.
void expect_halts_with(sim::Simulator& s,
                       const std::array<std::uint64_t, kNumArchRegs>& expected,
                       const std::string& cell) {
  ASSERT_EQ(s.run().stop, cpu::StopReason::kHalted) << cell;
  for (int r = 0; r < kNumArchRegs; ++r) {
    EXPECT_EQ(s.core().reg(static_cast<RegIndex>(r)),
              expected[static_cast<std::size_t>(r)])
        << cell << " r" << r;
  }
}

TEST(Wakeup, FullAndOverflowingDependentListsWakeEveryConsumer) {
  // The consumers bind r3 while the 20-cycle divide that writes it is in
  // flight, every other one through both operands. kMaxDeps of them fill
  // the inline dependent list, each woken through its own offset; twice
  // as many overflow it, and wakeup scans the younger suffix instead.
  for (const int consumers :
       {cpu::DynInst::kMaxDeps, 2 * cpu::DynInst::kMaxDeps}) {
    ProgramBuilder b(0x1000);
    b.movi(1, 1000).movi(2, 7);
    b.alu(AluOp::kDiv, 3, 1, 2);
    for (int i = 0; i < consumers; ++i) {
      const auto dst = static_cast<RegIndex>(4 + i);
      if (i % 2 == 0) {
        b.alui(AluOp::kAdd, dst, 3, i);
      } else {
        b.alu(AluOp::kAdd, dst, 3, 3);
      }
    }
    b.halt();
    auto prog = b.build();
    prog.set_entry(0x1000);
    for (const auto& policy : policy::registered_policy_names()) {
      auto s = make_policy_sim(prog, policy);
      const auto expected = functional_regs(prog, *s);
      EXPECT_EQ(expected[3], 142u);
      expect_halts_with(*s, expected,
                        policy + " consumers=" + std::to_string(consumers));
    }
  }
}

TEST(Wakeup, StaleDependentOffsetsAfterASquashRewindAreInert) {
  // The load writing r3 misses to memory. Before it returns, the
  // mispredicted branch squashes three of its consumers and the correct
  // path reuses their seqs, so the load's recorded offsets now name
  // (1) a load that binds r3 again, (2) an add waiting on that load, not
  // on r3, and (3) an add that binds r3 again. Only (1) and (3) may take
  // r3's value.
  constexpr Addr kData = 0x7F9000;
  constexpr Addr kSlow = 0x7FA000;
  ProgramBuilder b(0x1000);
  b.movi(1, kSlow);
  b.load(3, 1, 0);  // cold miss: kData
  b.branch(CondOp::kEq, kZeroReg, kZeroReg, "skip");  // always taken; cold
                                                      // counters predict not
  b.alui(AluOp::kAdd, 4, 3, 1);  // wrong path: three consumers of r3
  b.alui(AluOp::kAdd, 5, 3, 2);
  b.alu(AluOp::kAdd, 6, 3, 3);
  b.halt();
  b.label("skip");
  b.load(7, 3, 0);               // (1) reuses r4's seq
  b.alui(AluOp::kAdd, 8, 7, 5);  // (2) reuses r5's seq
  b.alui(AluOp::kAdd, 9, 3, 7);  // (3) reuses r6's seq
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  for (const auto& policy : policy::registered_policy_names()) {
    auto s = make_policy_sim(prog, policy);
    s->map_region(kData, kPageSize);
    s->map_region(kSlow, kPageSize);
    s->poke(kSlow, kData);
    s->poke(kData, 0x77);
    const auto expected = functional_regs(prog, *s);
    EXPECT_EQ(expected[8], 0x77u + 5);
    expect_halts_with(*s, expected, policy);
    EXPECT_GE(s->core().stats().mispredicts, 1u) << policy;
  }
}

TEST(WalkerRefs, StallRetriesSpillPastTheInlineRefsAndDrain) {
  // A two-entry stalling shadow dTLB: the cold loads to kSlow and kA hold
  // both entries until they commit, so the load to kB finds the table
  // full and re-walks the page table every cycle until an entry frees.
  // Each walk takes the walker lines' shadow d-cache refs again, far
  // more than the inline refs hold. All of them must be released or
  // promoted by the end of the run.
  constexpr Addr kSlow = 0x7FB000;
  constexpr Addr kA = 0x7FC000;
  constexpr Addr kB = 0x7FD000;
  ProgramBuilder b(0x1000);
  b.movi(1, kSlow).movi(2, kA).movi(3, kB);
  b.load(4, 1, 0);
  b.load(5, 2, 0);
  b.load(6, 3, 0);
  b.alu(AluOp::kAdd, 7, 4, 5).alu(AluOp::kAdd, 7, 7, 6);
  b.halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.shadow_dtlb.entries = 2;
  config.shadow_dtlb.full_policy = shadow::FullPolicy::kStall;
  auto s = make_policy_sim(prog, "WFC", config);
  for (const Addr page : {kSlow, kA, kB}) s->map_region(page, kPageSize);
  s->poke(kSlow, 1);
  s->poke(kA, 20);
  s->poke(kB, 300);
  const auto expected = functional_regs(prog, *s);
  EXPECT_EQ(expected[7], 321u);
  expect_halts_with(*s, expected, "WFC");
  EXPECT_GT(s->core().shadow_dtlb().stats().full_stalls.value(),
            static_cast<std::uint64_t>(cpu::DynInst::WalkerRefs::kInline));
  EXPECT_EQ(s->core().shadow_dcache().live_count(), 0);
  EXPECT_EQ(s->core().shadow_icache().live_count(), 0);
  EXPECT_EQ(s->core().shadow_dtlb().live_count(), 0);
  EXPECT_EQ(s->core().shadow_itlb().live_count(), 0);
}

TEST(ShadowItlb, FullStallingTableRetriesFetchEachCycle) {
  // A 200-iteration loop whose body hops across four code pages. With a
  // one-entry iTLB every hop misses; with a one-entry stalling shadow
  // iTLB a protected core cannot shadow the next page's translation until
  // the entry's holder promotes or is squashed, so fetch retries one
  // cycle later. The synthetic workloads never fill a shadow iTLB, so
  // this is the one test of that full path: it pins each registered
  // policy's cycles and the shadow iTLB's full_stalls.
  ProgramBuilder b(0x1000);
  b.movi(1, 200);
  b.label("loop").jump("page1");
  b.at(0x2000).label("page1").jump("page2");
  b.at(0x3000).label("page2").jump("page3");
  b.at(0x4000).label("page3").alui(AluOp::kSub, 1, 1, 1);
  b.branch(CondOp::kNe, 1, kZeroReg, "loop").halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.itlb.entries = 1;
  config.itlb.ways = 1;
  config.shadow_itlb.entries = 1;
  config.shadow_itlb.full_policy = shadow::FullPolicy::kStall;
  struct Pin {
    Cycle cycles;
    std::uint64_t full_stalls;
  };
  const std::map<std::string, Pin> pins = {
      {"baseline", {15'252, 0}},    {"SHARP", {15'252, 0}},
      {"detect-only", {15'252, 0}}, {"WFB", {617'790, 4'909}},
      {"WFB-stall", {617'790, 4'909}}, {"WFC", {620'973, 8'092}},
  };
  for (const auto& policy : policy::registered_policy_names()) {
    ASSERT_EQ(pins.count(policy), 1u) << policy << " has no pinned run";
    auto s = make_policy_sim(prog, policy, config);
    ASSERT_EQ(s->run().stop, cpu::StopReason::kHalted) << policy;
    EXPECT_EQ(s->core().reg(1), 0u) << policy;
    EXPECT_EQ(s->core().stats().cycles, pins.at(policy).cycles) << policy;
    EXPECT_EQ(s->core().shadow_itlb().stats().full_stalls.value(),
              pins.at(policy).full_stalls)
        << policy;
  }
}

TEST(Restart, PreservesMicroarchitecturalState) {
  // restart_at() re-steers control flow but must keep caches warm — the
  // attack harness relies on this for multi-phase attacks.
  constexpr Addr kData = 0x7C0000;
  ProgramBuilder b(0x1000);
  b.movi(1, kData).load(2, 1, 0).fence().halt();
  b.label("phase2").movi(3, 7).halt();
  auto prog = b.build();
  prog.set_entry(0x1000);
  const Addr phase2 = b.label_addr("phase2");
  auto s = make_sim(std::move(prog), "WFC");
  s.map_region(kData, kPageSize);
  s.run();
  ASSERT_TRUE(s.core().hierarchy().resident_l1(line_of(kData),
                                               memory::Side::kData));
  s.core().restart_at(phase2);
  const auto r2 = s.run(100000).stop;
  EXPECT_EQ(r2, cpu::StopReason::kHalted);
  EXPECT_EQ(s.core().reg(3), 7u);
  EXPECT_TRUE(s.core().hierarchy().resident_l1(line_of(kData),
                                               memory::Side::kData));
}

}  // namespace
}  // namespace safespec
