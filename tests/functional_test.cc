// Tests for the functional engine and sampled simulation: the engine's
// equivalence with the detailed core across every fuzz scenario class,
// checkpoint equivalence at arbitrary window boundaries, checkpoint
// save/restore round-trips (including mid-fault-handler state), the ff=0
// bit-identity guarantee, sampled IPC-estimate sanity, and
// translation-cache invalidation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/cell.h"
#include "fuzz/fuzz_spec.h"
#include "fuzz/generator.h"
#include "isa/program.h"
#include "memory/main_memory.h"
#include "memory/page_table.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace safespec {
namespace {

using fuzz::FuzzProgram;
using fuzz::FuzzSpec;
using fuzz::ScenarioWeights;
using sim::ArchCheckpoint;
using sim::FunctionalEngine;
using sim::SamplingSpec;

/// All-zero scenario weights ({} would re-apply the 1.0 defaults).
ScenarioWeights zero_weights() {
  ScenarioWeights w;
  w.branch_heavy = 0;
  w.pointer_chase = 0;
  w.protected_window = 0;
  w.self_confusing = 0;
  w.mixed_compute = 0;
  w.mem_storm = 0;
  return w;
}

/// Everything two executions must agree on.
struct FinalState {
  cpu::StopReason stop = cpu::StopReason::kMaxCycles;
  std::uint64_t committed = 0;
  std::uint64_t faults = 0;
  std::array<std::uint64_t, kNumArchRegs> regs{};
  std::vector<std::pair<Addr, std::uint64_t>> memory;
};

void expect_equal(const FinalState& a, const FinalState& b,
                  const std::string& what) {
  EXPECT_EQ(a.stop, b.stop) << what;
  EXPECT_EQ(a.committed, b.committed) << what;
  EXPECT_EQ(a.faults, b.faults) << what;
  EXPECT_EQ(a.regs, b.regs) << what;
  EXPECT_EQ(a.memory, b.memory) << what;
}

FinalState engine_final_state(const FuzzProgram& fp) {
  memory::MainMemory mem;
  memory::PageTable pt;
  memory::map_image(fp.regions, fp.init_words, mem, pt);
  FunctionalEngine engine(&fp.program, &mem, &pt);
  FinalState state;
  state.stop = engine.run(fp.max_instrs_hint);
  state.committed = engine.committed();
  state.faults = engine.faults();
  for (int r = 0; r < kNumArchRegs; ++r) {
    state.regs[static_cast<std::size_t>(r)] =
        engine.reg(static_cast<RegIndex>(r));
  }
  state.memory = mem.nonzero_words();
  return state;
}

std::unique_ptr<sim::Simulator> detailed_sim(const FuzzProgram& fp) {
  sim::MachineSpec spec = sim::machine_preset("skylake");
  spec.regions = fp.regions;
  spec.pokes = fp.init_words;
  return sim::MachineBuilder(std::move(spec))
      .policy("baseline")
      .build(fp.program);
}

FinalState detailed_final_state(const FuzzProgram& fp) {
  const auto sim = detailed_sim(fp);
  const auto result = sim->run(50'000'000, 4 * fp.max_instrs_hint);
  FinalState state;
  state.stop = result.stop;
  state.committed = result.committed_instrs;
  state.faults = result.faults;
  for (int r = 0; r < kNumArchRegs; ++r) {
    state.regs[static_cast<std::size_t>(r)] =
        sim->core().reg(static_cast<RegIndex>(r));
  }
  state.memory = sim->memory().nonzero_words();
  return state;
}

// ---- functional vs detailed, per scenario class ---------------------------

/// The engine must reproduce the detailed core's committed state for
/// every scenario class in isolation (the nightly fuzzer covers the
/// mixtures; a per-class failure here names the broken class directly).
TEST(FunctionalEquivalenceTest, MatchesDetailedCorePerScenarioClass) {
  struct Class {
    const char* name;
    void (*select)(ScenarioWeights&);
  };
  const Class classes[] = {
      {"branch_heavy", [](ScenarioWeights& w) { w.branch_heavy = 1; }},
      {"pointer_chase", [](ScenarioWeights& w) { w.pointer_chase = 1; }},
      {"protected_window",
       [](ScenarioWeights& w) { w.protected_window = 1; }},
      {"self_confusing", [](ScenarioWeights& w) { w.self_confusing = 1; }},
      {"mixed_compute", [](ScenarioWeights& w) { w.mixed_compute = 1; }},
      {"mem_storm", [](ScenarioWeights& w) { w.mem_storm = 1; }},
  };
  for (const Class& c : classes) {
    FuzzSpec spec;
    spec.weights = zero_weights();
    c.select(spec.weights);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const FuzzProgram fp = fuzz::generate_program(seed, spec);
      const FinalState oracle = engine_final_state(fp);
      const FinalState core = detailed_final_state(fp);
      expect_equal(oracle, core,
                   std::string(c.name) + " seed " + std::to_string(seed));
    }
  }
}

// ---- checkpoint-boundary equivalence --------------------------------------

/// Drives the detailed core in small committed-instruction chunks with
/// the engine following by the same deltas: at every boundary (an
/// arbitrary sample-window edge) the architectural state must agree —
/// registers, resume pc, fault count, and committed memory.
TEST(FunctionalEquivalenceTest, AgreesAtEveryChunkBoundary) {
  FuzzSpec spec;
  spec.loop_iterations = 12;  // a long program: many boundaries to check
  const FuzzProgram fp = fuzz::generate_program(7, spec);

  memory::MainMemory mem;
  memory::PageTable pt;
  memory::map_image(fp.regions, fp.init_words, mem, pt);
  FunctionalEngine engine(&fp.program, &mem, &pt);

  const auto sim = detailed_sim(fp);
  cpu::Core& core = sim->core();

  int boundaries = 0;
  for (int chunk = 0; chunk < 400; ++chunk) {
    const std::uint64_t c0 = core.stats().committed_instrs;
    const auto core_stop = sim->run(1'000'000, 137).stop;
    const std::uint64_t delta = core.stats().committed_instrs - c0;

    const auto engine_stop = engine.run(delta);
    ASSERT_EQ(engine.committed(), core.stats().committed_instrs);
    ASSERT_EQ(engine.faults(), core.stats().faults)
        << "boundary " << chunk;
    for (int r = 0; r < kNumArchRegs; ++r) {
      ASSERT_EQ(engine.reg(static_cast<RegIndex>(r)),
                core.reg(static_cast<RegIndex>(r)))
          << "boundary " << chunk << " r" << r;
    }
    ASSERT_EQ(mem.nonzero_words(), sim->memory().nonzero_words())
        << "boundary " << chunk;

    if (core_stop != cpu::StopReason::kMaxInstrs) {
      // Program over (halt or unhandled fault): both sides agree on why.
      ASSERT_EQ(engine_stop, core_stop);
      break;
    }
    // The resume pc the sampled loop would restart the core at.
    ASSERT_EQ(engine.pc(), core.next_commit_pc()) << "boundary " << chunk;
    ++boundaries;
  }
  ASSERT_GT(boundaries, 10) << "program too short to exercise boundaries";
}

// ---- checkpoint round-trips -----------------------------------------------

/// Checkpoints taken mid-run — including with pending fault-handler
/// state — must restore onto a *fresh* engine over a copy of the memory
/// image taken at the checkpoint and replay to the identical final state.
TEST(CheckpointTest, RoundTripsThroughMidFaultHandlerState) {
  // All scenario classes (mem_storm supplies stores) with every
  // protected_window block committing a recoverable fault.
  FuzzSpec spec;
  spec.fault_frac = 1.0;
  spec.install_fault_handler = true;
  spec.loop_iterations = 10;  // leave plenty of program past the fault
  // Seed 3 (under this spec): faults early and keeps running, and
  // storing, well past the checkpoint.
  const FuzzProgram fp = fuzz::generate_program(3, spec);

  // Reference run: checkpoint once the fault handler has fired (plus a
  // little headroom), copy the memory image there, then run to
  // completion.
  memory::MainMemory mem_a;
  memory::PageTable pt;
  memory::map_image(fp.regions, fp.init_words, mem_a, pt);
  FunctionalEngine a(&fp.program, &mem_a, &pt);
  auto stop = cpu::StopReason::kMaxInstrs;
  while (a.faults() == 0 && stop == cpu::StopReason::kMaxInstrs) {
    stop = a.run(25);
  }
  ASSERT_GT(a.faults(), 0u) << "seed produced no architectural fault";
  ASSERT_EQ(stop, cpu::StopReason::kMaxInstrs)
      << "program ended before a checkpoint could be taken";
  ASSERT_EQ(a.run(500), cpu::StopReason::kMaxInstrs)
      << "program ended before a checkpoint could be taken";
  const ArchCheckpoint cp = a.checkpoint();
  EXPECT_TRUE(cp.started);
  EXPECT_GT(cp.faults, 0u);
  memory::MainMemory mem_b = mem_a;  // copy-on-write: shares until a store
  const auto at_checkpoint = mem_b.nonzero_words();

  FinalState final_a;
  final_a.stop = a.run(fp.max_instrs_hint);
  final_a.committed = a.committed();
  final_a.faults = a.faults();
  for (int r = 0; r < kNumArchRegs; ++r) {
    final_a.regs[static_cast<std::size_t>(r)] =
        a.reg(static_cast<RegIndex>(r));
  }
  final_a.memory = mem_a.nonzero_words();
  // The run stores after the checkpoint, and the copy kept the image of
  // the checkpoint: otherwise the replay below would not test the copy.
  ASSERT_NE(final_a.memory, at_checkpoint)
      << "no store after the checkpoint";
  ASSERT_EQ(mem_b.nonzero_words(), at_checkpoint);

  // Cold restore: fresh engine over the checkpoint's memory image.
  FunctionalEngine b(&fp.program, &mem_b, &pt);
  b.restore(cp);
  ASSERT_EQ(b.committed(), cp.committed);
  ASSERT_EQ(b.pc(), cp.pc);

  FinalState final_b;
  final_b.stop = b.run(fp.max_instrs_hint);
  final_b.committed = b.committed();
  final_b.faults = b.faults();
  for (int r = 0; r < kNumArchRegs; ++r) {
    final_b.regs[static_cast<std::size_t>(r)] =
        b.reg(static_cast<RegIndex>(r));
  }
  final_b.memory = mem_b.nonzero_words();
  expect_equal(final_a, final_b, "cold restore replay");
}

// ---- ff=0 bit-identity ----------------------------------------------------

/// run_sampled with a disabled spec must be the plain detailed run,
/// bit for bit — the guarantee that lets every existing figure/golden
/// path route through the sampled entry point unchanged.
TEST(SampledSimulationTest, DisabledSamplingIsBitIdenticalToDetailedRun) {
  const struct {
    const char* workload;
    const char* policy;
  } cases[] = {{"mcf", "baseline"}, {"gcc", "WFC"}};
  for (const auto& c : cases) {
    const auto profile = workloads::profile_by_name(c.workload);
    cpu::CoreConfig config = sim::machine_preset("skylake").core;
    config.policy = c.policy;

    const std::uint64_t instrs = 20'000;
    auto plain = workloads::make_workload_sim(profile, config, instrs);
    const auto r1 = plain->run(experiment::cycle_budget(instrs), instrs);

    auto sampled = workloads::make_workload_sim(profile, config, instrs);
    const auto r2 = sampled->run_sampled(
        SamplingSpec{}, experiment::cycle_budget(instrs), instrs);

    EXPECT_EQ(r1.stop, r2.stop) << c.workload;
    EXPECT_EQ(r1.cycles, r2.cycles) << c.workload;
    EXPECT_EQ(r1.committed_instrs, r2.committed_instrs) << c.workload;
    EXPECT_EQ(r1.faults, r2.faults) << c.workload;
    EXPECT_FALSE(r2.sampling.enabled);
  }
}

// ---- sampled estimates ----------------------------------------------------

TEST(SampledSimulationTest, SampledRunProducesIpcEstimateWithInterval) {
  const auto profile = workloads::profile_by_name("mcf");
  const cpu::CoreConfig config = sim::machine_preset("skylake").core;
  const std::uint64_t instrs = 100'000;

  SamplingSpec spec;
  spec.fast_forward_interval = 10'000;
  spec.warmup_instrs = 1'000;
  spec.detail_instrs = 2'000;

  auto sim = workloads::make_workload_sim(profile, config, instrs);
  const auto r = sim->run_sampled(spec, 50'000'000, instrs);

  EXPECT_EQ(r.stop, cpu::StopReason::kMaxInstrs);
  EXPECT_TRUE(r.sampling.enabled);
  EXPECT_GE(r.sampling.windows, 2u);
  // Every architectural instruction is accounted: fast-forwarded +
  // detailed cover the whole budget (modulo commit-width overshoot).
  EXPECT_GE(r.committed_instrs, instrs);
  EXPECT_LT(r.committed_instrs, instrs + 64);
  EXPECT_EQ(r.committed_instrs, r.sampling.fast_forwarded +
                                    r.sampling.warmup_commits +
                                    r.sampling.measured_commits);
  EXPECT_GT(r.sampling.fast_forwarded, r.sampling.measured_commits);
  // The IPC estimate is physical and carries a finite interval.
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_LE(r.ipc, 8.0);
  EXPECT_EQ(r.ipc, r.sampling.ipc_mean);
  EXPECT_GE(r.sampling.ipc_ci95, 0.0);
  // Cycles count the detailed windows only (warmup + measured).
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GE(r.cycles, r.sampling.measured_cycles);
}

/// The experiment engine honors MachineSpec::sampling: a cell run under
/// an enabled spec reports sampled accounting.
TEST(SampledSimulationTest, RunWorkloadHonorsSamplingSpec) {
  experiment::Cell cell;
  cell.workload = "lbm";
  cell.overrides = {"sampling.fast_forward_interval=5000",
                    "sampling.warmup_instrs=500",
                    "sampling.detail_instrs=1000"};
  cell.instrs = 50'000;
  const auto r = experiment::run_cell(cell).result;
  EXPECT_TRUE(r.sampling.enabled);
  EXPECT_GE(r.sampling.windows, 1u);
  EXPECT_GE(r.committed_instrs, 50'000u);
}

/// Regression: a schedule that yields exactly one measured window used to
/// be a divide-by-zero hazard in the sample-stddev path. One sample has
/// no dispersion — stddev and ci95 must be exactly zero, never NaN.
TEST(SampledSimulationTest, SingleWindowRunReportsZeroDispersion) {
  const auto profile = workloads::profile_by_name("mcf");
  const cpu::CoreConfig config = sim::machine_preset("skylake").core;
  const std::uint64_t instrs = 10'000;

  SamplingSpec spec;
  spec.fast_forward_interval = 8'000;
  spec.warmup_instrs = 500;
  spec.detail_instrs = 1'000;

  auto sim = workloads::make_workload_sim(profile, config, instrs);
  const auto r = sim->run_sampled(spec, 50'000'000, instrs);

  EXPECT_TRUE(r.sampling.enabled);
  ASSERT_EQ(r.sampling.windows, 1u);
  EXPECT_GT(r.sampling.ipc_mean, 0.0);
  EXPECT_EQ(r.ipc, r.sampling.ipc_mean);
  EXPECT_EQ(r.sampling.ipc_stddev, 0.0);
  EXPECT_EQ(r.sampling.ipc_ci95, 0.0);
  // NaN would poison both == comparisons above, but be explicit: the
  // estimate itself must be a real number too.
  EXPECT_EQ(r.ipc, r.ipc);
}

TEST(SampledSimulationTest, EnabledSpecWithZeroDetailWindowIsRejected) {
  SamplingSpec spec;
  spec.fast_forward_interval = 1'000;
  spec.detail_instrs = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  SamplingSpec disabled;
  disabled.detail_instrs = 0;  // fine while sampling is off
  EXPECT_NO_THROW(disabled.validate());
}

// ---- translation cache ----------------------------------------------------

TEST(FunctionalEngineTest, InvalidateTranslationsSeesRemappedPages) {
  constexpr Addr kText = 0x1000;
  constexpr Addr kData = 0x10000;
  constexpr Addr kAlt = 0x12000;

  isa::ProgramBuilder b(kText);
  b.movi(1, static_cast<std::int64_t>(kData));
  b.load(2, 1);
  b.halt();
  isa::Program program = b.build();
  program.set_entry(kText);

  memory::MainMemory mem;
  memory::PageTable pt;
  for (const Addr base : {kText, kData, kAlt}) {
    mem.map_page(page_of(base), memory::PagePerm::kUser);
  }
  pt.map_identity(page_of(kText), /*kernel_only=*/false);
  pt.map_identity(page_of(kData), /*kernel_only=*/false);
  mem.write64(kData, 0xAAAA);
  mem.write64(kAlt, 0xBBBB);

  FunctionalEngine engine(&program, &mem, &pt);
  ASSERT_EQ(engine.run(100), cpu::StopReason::kHalted);
  EXPECT_EQ(engine.reg(static_cast<RegIndex>(2)), 0xAAAAu);

  // Remap the data vpage onto the alternate frame and rerun from a
  // pristine state: the cached translation must not survive the
  // documented invalidation point.
  pt.map(page_of(kData), page_of(kAlt), /*kernel_only=*/false);
  engine.invalidate_translations();
  engine.restore(ArchCheckpoint{});
  ASSERT_EQ(engine.run(100), cpu::StopReason::kHalted);
  EXPECT_EQ(engine.reg(static_cast<RegIndex>(2)), 0xBBBBu);
}

}  // namespace
}  // namespace safespec
