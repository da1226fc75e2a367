// Multi-core determinism tests: a cores=2 run is bit-identical when
// repeated (cycles, per-core stats, architectural state, cross-core
// eviction counts), the deterministic interleaving and shared-level
// contention never reach architecture (every core at cores=2 commits the
// same state as the cores=1 run of the same workload), each core's
// stores stay in its own copy of the shared initial image, and cores=1 runs
// stay deterministic across every policy x preset after the
// shared-hierarchy refactor (bit-identity against the seed is enforced
// separately by the golden CSVs).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "experiment/cell.h"
#include "fuzz/differential.h"
#include "fuzz/fuzz_spec.h"
#include "isa/program.h"
#include "safespec/policy.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace safespec {
namespace {

/// Everything a run observably produces, for bit-identity comparisons.
struct RunFingerprint {
  cpu::StopReason stop = cpu::StopReason::kHalted;
  Cycle cycles = 0;
  std::uint64_t committed_all_cores = 0;
  std::uint64_t cross_core_evictions = 0;
  std::vector<std::uint64_t> committed;  // per core
  std::vector<std::uint64_t> faults;     // per core
  std::vector<std::vector<std::uint64_t>> regs;  // per core, r0..r31
};

RunFingerprint fingerprint(const sim::Simulator& sim,
                           const sim::SimResult& result) {
  RunFingerprint fp;
  fp.stop = result.stop;
  fp.cycles = result.cycles;
  fp.committed_all_cores = result.committed_all_cores;
  fp.cross_core_evictions = result.cross_core_evictions;
  for (int c = 0; c < sim.num_cores(); ++c) {
    fp.committed.push_back(sim.core(c).stats().committed_instrs);
    fp.faults.push_back(sim.core(c).stats().faults);
    std::vector<std::uint64_t> r;
    for (int i = 0; i < kNumArchRegs; ++i) {
      r.push_back(sim.core(c).reg(static_cast<RegIndex>(i)));
    }
    fp.regs.push_back(std::move(r));
  }
  return fp;
}

void expect_identical(const RunFingerprint& a, const RunFingerprint& b,
                      const std::string& what) {
  EXPECT_EQ(a.stop, b.stop) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.committed_all_cores, b.committed_all_cores) << what;
  EXPECT_EQ(a.cross_core_evictions, b.cross_core_evictions) << what;
  EXPECT_EQ(a.committed, b.committed) << what;
  EXPECT_EQ(a.faults, b.faults) << what;
  EXPECT_EQ(a.regs, b.regs) << what;
}

RunFingerprint run_once(const std::string& workload,
                        const std::string& policy, const std::string& preset,
                        int cores, std::uint64_t instrs) {
  const auto profile = workloads::profile_by_name(workload);
  cpu::CoreConfig config = sim::machine_preset(preset).core;
  config.policy = policy;
  config.cores = cores;
  auto sim = workloads::make_workload_sim(profile, config, instrs);
  const auto result = sim->run(experiment::cycle_budget(instrs), instrs);
  return fingerprint(*sim, result);
}

// ---- cores=2 determinism ---------------------------------------------------

TEST(MultiCore, CoresTwoRunTwiceIsBitIdentical) {
  for (const char* policy : {"baseline", "WFC"}) {
    const auto a = run_once("mcf", policy, "skylake", 2, 20'000);
    const auto b = run_once("mcf", policy, "skylake", 2, 20'000);
    ASSERT_EQ(a.committed.size(), 2u) << policy;
    expect_identical(a, b, std::string("cores=2 repeat, ") + policy);
  }
}

TEST(MultiCore, SharedContentionNeverReachesArchitecture) {
  // Both cores run the same halting program on private memory: whatever
  // the interleaving and shared-L2/L3 contention do to timing, every core
  // must independently reproduce the single-core oracle state. The
  // differential checker asserts exactly that per core at cores=2.
  // (Synthetic SPEC workloads can't carry this check — they are
  // budget-bounded infinite loops, so where they stop is timing.)
  const fuzz::FuzzSpec spec;
  fuzz::DifferentialConfig config;
  config.cores = 2;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto verdict = fuzz::check_seed(seed, spec, config);
    EXPECT_TRUE(verdict.ok)
        << "seed " << seed << ": "
        << (verdict.violations.empty() ? "" : verdict.violations.front());
  }
}

TEST(MultiCore, SharpFamilySingleCoreBitIdenticalToBaseline) {
  // At cores=1 every line is owner 0, so SHARP's protected choice and
  // detect-only's telemetry reduce to the baseline victim stream —
  // including the random draw. The whole fingerprint must match.
  const auto base = run_once("gcc", "baseline", "skylake", 1, 20'000);
  for (const char* policy : {"SHARP", "detect-only"}) {
    const auto p = run_once("gcc", policy, "skylake", 1, 20'000);
    expect_identical(base, p, std::string("cores=1 vs baseline, ") + policy);
  }
}

TEST(MultiCore, DetectOnlyCoresTwoTimingIdenticalToBaseline) {
  // detect-only observes cross-owner evictions without altering any
  // victim choice, so even the cores=2 run (where owners genuinely
  // differ) is cycle-identical to the baseline.
  const auto base = run_once("mcf", "baseline", "skylake", 2, 20'000);
  const auto det = run_once("mcf", "detect-only", "skylake", 2, 20'000);
  expect_identical(base, det, "cores=2 baseline vs detect-only");
}

TEST(MultiCore, SharpCoresTwoRunTwiceIsBitIdentical) {
  const auto a = run_once("mcf", "SHARP", "skylake", 2, 20'000);
  const auto b = run_once("mcf", "SHARP", "skylake", 2, 20'000);
  ASSERT_EQ(a.committed.size(), 2u);
  expect_identical(a, b, "cores=2 repeat, SHARP");
}

TEST(MultiCore, EachCoreWritesOnlyItsOwnImage) {
  // Both cores run one program that stores r1 to one address, over
  // copies of one image that share their pages until written. Different
  // r1 values per core must land in different images. (The cores=2 fuzz
  // shard cannot see page aliasing: its cores store identical values.)
  constexpr Addr kData = 0x200000;
  constexpr Addr kOther = 0x400000;
  isa::ProgramBuilder b(0x1000);
  b.movi(2, static_cast<std::int64_t>(kData)).store(1, 2).halt();
  isa::Program program = b.build();
  program.set_entry(0x1000);
  auto sim = sim::MachineBuilder::from_preset("skylake")
                 .set("cores=2")
                 .map_region(kData, kPageSize)
                 .map_region(kOther, kPageSize)
                 .poke(kData, 5)
                 .poke(kOther, 6)
                 .build(std::move(program));
  ASSERT_EQ(sim->num_cores(), 2);
  sim->core(0).set_reg(1, 0x111);
  sim->core(1).set_reg(1, 0x222);
  sim->poke_on(1, kOther, 7);
  EXPECT_EQ(sim->peek_on(0, kOther), 6u);
  EXPECT_EQ(sim->peek_on(1, kOther), 7u);

  EXPECT_EQ(sim->run().stop, cpu::StopReason::kHalted);
  EXPECT_TRUE(sim->core(1).halted());
  EXPECT_EQ(sim->peek_on(0, kData), 0x111u);
  EXPECT_EQ(sim->peek_on(1, kData), 0x222u);
  EXPECT_EQ(sim->peek_on(0, kOther), 6u);
  EXPECT_EQ(sim->peek_on(1, kOther), 7u);
}

// ---- cores=1 stability across the whole configuration space ----------------

TEST(MultiCore, SingleCoreStaysDeterministicAcrossPoliciesAndPresets) {
  for (const auto& preset : sim::machine_preset_names()) {
    for (const auto& policy : policy::registered_policy_names()) {
      const std::string what = policy + "/" + preset;
      const auto a = run_once("xz", policy, preset, 1, 5'000);
      const auto b = run_once("xz", policy, preset, 1, 5'000);
      ASSERT_EQ(a.committed.size(), 1u) << what;
      EXPECT_EQ(a.cross_core_evictions, 0u) << what;
      expect_identical(a, b, what);
    }
  }
}

}  // namespace
}  // namespace safespec
