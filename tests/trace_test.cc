// Trace codec: in-memory round trips, corrupt-input rejection, replay
// bit-identity (the guarantee the trace:@NAME workloads rest on), the
// fetch decoded-instruction buffer's cycle-neutrality, and the cached
// functional engine.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "experiment/experiment.h"
#include "fuzz/fuzz_spec.h"
#include "fuzz/generator.h"
#include "sim/functional.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace {

using namespace safespec;

constexpr std::uint64_t kInstrs = 20'000;

/// One detailed run of an image plus the full architectural register
/// file — everything "bit-identical replay" must preserve.
struct RunOutcome {
  sim::SimResult result;
  std::array<std::uint64_t, kNumArchRegs> regs{};
};

RunOutcome run_image(workloads::WorkloadImage image,
                     const cpu::CoreConfig& config, std::uint64_t instrs) {
  auto sim = workloads::make_image_sim(std::move(image), config);
  RunOutcome out;
  out.result = sim->run(experiment::cycle_budget(instrs),
                        instrs == 0 ? ~0ULL : instrs);
  for (int r = 0; r < kNumArchRegs; ++r) {
    out.regs[static_cast<std::size_t>(r)] =
        sim->core().reg(static_cast<RegIndex>(r));
  }
  return out;
}

void expect_identical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.committed_instrs, b.result.committed_instrs);
  EXPECT_EQ(a.result.stop, b.result.stop);
  EXPECT_EQ(a.result.mispredicts, b.result.mispredicts);
  EXPECT_EQ(a.result.faults, b.result.faults);
  EXPECT_EQ(a.regs, b.regs);
}

// ---- codec ------------------------------------------------------------------

TEST(TraceCodec, ImageSurvivesEncodeDecode) {
  const auto workload =
      workloads::generate(workloads::profile_by_name("mcf"), kInstrs);
  const trace::TraceImage image = trace::record_workload(workload);
  ASSERT_FALSE(image.records.empty());
  ASSERT_FALSE(image.regions.empty());
  ASSERT_FALSE(image.init_words.empty());  // mcf has chase links

  const trace::TraceImage back = trace::decode(trace::encode(image));
  EXPECT_EQ(back.entry, image.entry);
  EXPECT_EQ(back.fault_handler, image.fault_handler);
  ASSERT_EQ(back.regions.size(), image.regions.size());
  for (std::size_t i = 0; i < image.regions.size(); ++i) {
    EXPECT_EQ(back.regions[i].base, image.regions[i].base);
    EXPECT_EQ(back.regions[i].bytes, image.regions[i].bytes);
    EXPECT_EQ(back.regions[i].perm, image.regions[i].perm);
  }
  ASSERT_EQ(back.init_words.size(), image.init_words.size());
  for (std::size_t i = 0; i < image.init_words.size(); ++i) {
    EXPECT_EQ(back.init_words[i].addr, image.init_words[i].addr);
    EXPECT_EQ(back.init_words[i].value, image.init_words[i].value);
  }
  ASSERT_EQ(back.records.size(), image.records.size());
  for (std::size_t i = 0; i < image.records.size(); ++i) {
    EXPECT_EQ(back.records[i].pc, image.records[i].pc);
    EXPECT_EQ(back.records[i].op, image.records[i].op);
    EXPECT_EQ(back.records[i].imm, image.records[i].imm);
    EXPECT_EQ(back.records[i].target, image.records[i].target);
    EXPECT_EQ(back.records[i].flags, image.records[i].flags);
  }
}

TEST(TraceCodec, MultiChunkImageSurvivesEncodeDecode) {
  // xalancbmk's large code footprint spans several chunks, so this
  // exercises the chunk-boundary path, not just one small chunk.
  const auto workload =
      workloads::generate(workloads::profile_by_name("xalancbmk"), kInstrs);
  const trace::TraceImage image = trace::record_workload(workload);
  ASSERT_GT(image.records.size(), trace::kTraceChunkRecords);

  const trace::TraceImage back = trace::decode(trace::encode(image));
  ASSERT_EQ(back.records.size(), image.records.size());
  for (std::size_t i = 0; i < image.records.size(); ++i) {
    const trace::TraceRecord& a = back.records[i];
    const trace::TraceRecord& b = image.records[i];
    ASSERT_EQ(a.pc, b.pc) << i;
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.alu, b.alu) << i;
    EXPECT_EQ(a.cond, b.cond) << i;
    EXPECT_EQ(a.dst, b.dst) << i;
    EXPECT_EQ(a.src1, b.src1) << i;
    EXPECT_EQ(a.src2, b.src2) << i;
    EXPECT_EQ(a.flags, b.flags) << i;
    EXPECT_EQ(a.imm, b.imm) << i;
    EXPECT_EQ(a.target, b.target) << i;
  }
}

TEST(TraceCodec, CompressionShrinksTheFile) {
  // exchange2 has no init-word tables (stored raw by design), so the
  // file is essentially records and the codec's ratio shows cleanly.
  const auto workload =
      workloads::generate(workloads::profile_by_name("exchange2"), kInstrs);
  const trace::TraceImage image = trace::record_workload(workload);
  const std::size_t compressed = trace::encode(image, true).size();
  const std::size_t raw = trace::encode(image, false).size();
  EXPECT_LT(compressed, raw / 2);  // XOR-delta + zero-RLE bites hard
  // Both spellings decode to the same image.
  EXPECT_EQ(trace::decode(trace::encode(image, false)).records.size(),
            image.records.size());
}

// ---- corrupt input ----------------------------------------------------------

TEST(TraceCodec, RejectsBadMagic) {
  auto bytes = trace::encode(trace::TraceImage{});
  bytes[0] ^= 0xff;
  EXPECT_THROW(trace::decode(bytes), std::runtime_error);
  try {
    trace::decode(bytes);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(TraceCodec, RejectsWrongVersion) {
  auto bytes = trace::encode(trace::TraceImage{});
  bytes[4] = 99;
  try {
    trace::decode(bytes);
    FAIL() << "version 99 must be rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 99"), std::string::npos);
    EXPECT_NE(what.find("version 1"), std::string::npos);
  }
}

TEST(TraceCodec, RejectsTruncation) {
  const auto workload =
      workloads::generate(workloads::profile_by_name("mcf"), kInstrs);
  auto bytes = trace::encode(trace::record_workload(workload));
  // Mid-header, mid-tables, and mid-chunk truncations all fail loudly.
  for (const std::size_t keep :
       {std::size_t{10}, std::size_t{70}, bytes.size() - 5}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(trace::decode(cut), std::runtime_error) << keep;
  }
}

TEST(TraceCodec, RejectsCorruptPayload) {
  const auto workload =
      workloads::generate(workloads::profile_by_name("mcf"), kInstrs);
  auto bytes = trace::encode(trace::record_workload(workload));
  bytes.back() ^= 0x5a;  // damage the last chunk's payload
  EXPECT_THROW(trace::decode(bytes), std::runtime_error);

  // A record count no buffer could hold fails as a truncation, before
  // any allocation sized by it.
  auto huge = trace::encode(trace::TraceImage{});
  for (std::size_t i = 32; i < 40; ++i) huge[i] = 0xff;
  EXPECT_THROW(trace::decode(huge), std::runtime_error);
}

// ---- replay bit-identity ----------------------------------------------------

TEST(TraceReplay, InMemoryRoundTripIsBitIdentical) {
  const cpu::CoreConfig config;
  const auto direct = workloads::profile_by_name("mcf");
  const auto traced = workloads::profile_by_name("trace:@mcf");
  ASSERT_EQ(traced.trace_file, "@");
  expect_identical(run_image(workloads::generate(direct, kInstrs), config,
                             kInstrs),
                   run_image(workloads::generate(traced, kInstrs), config,
                             kInstrs));
}

TEST(TraceReplay, RoundTripIsBitIdenticalPerFuzzScenarioClass) {
  const struct {
    const char* name;
    double fuzz::ScenarioWeights::*weight;
  } classes[] = {
      {"branch_heavy", &fuzz::ScenarioWeights::branch_heavy},
      {"pointer_chase", &fuzz::ScenarioWeights::pointer_chase},
      {"protected_window", &fuzz::ScenarioWeights::protected_window},
      {"self_confusing", &fuzz::ScenarioWeights::self_confusing},
      {"mixed_compute", &fuzz::ScenarioWeights::mixed_compute},
      {"mem_storm", &fuzz::ScenarioWeights::mem_storm},
  };
  const cpu::CoreConfig config;
  for (const auto& scenario : classes) {
    SCOPED_TRACE(scenario.name);
    fuzz::FuzzSpec spec;
    spec.weights = {};
    spec.weights.branch_heavy = 0.0;
    spec.weights.pointer_chase = 0.0;
    spec.weights.protected_window = 0.0;
    spec.weights.self_confusing = 0.0;
    spec.weights.mixed_compute = 0.0;
    spec.weights.mem_storm = 0.0;
    spec.weights.*scenario.weight = 1.0;

    const auto fp = fuzz::generate_program(7, spec);
    const auto replayed = trace::to_workload_image(
        trace::decode(trace::encode(trace::record_workload(fp))));
    expect_identical(run_image(fp, config, 0),
                     run_image(replayed, config, 0));
  }
}

// ---- decoded-instruction buffer ---------------------------------------------

TEST(Dib, OnVsOffIsCycleIdentical) {
  for (const char* name : {"exchange2", "mcf"}) {
    SCOPED_TRACE(name);
    const auto profile = workloads::profile_by_name(name);
    cpu::CoreConfig on;
    cpu::CoreConfig off;
    off.dib_lines = 0;
    auto sim_on = workloads::make_workload_sim(profile, on, kInstrs);
    auto sim_off = workloads::make_workload_sim(profile, off, kInstrs);
    const Cycle budget = experiment::cycle_budget(kInstrs);
    const auto r_on = sim_on->run(budget, kInstrs);
    const auto r_off = sim_off->run(budget, kInstrs);
    EXPECT_EQ(r_on.cycles, r_off.cycles);
    EXPECT_EQ(r_on.committed_instrs, r_off.committed_instrs);
    EXPECT_EQ(r_on.mispredicts, r_off.mispredicts);
    for (int r = 0; r < kNumArchRegs; ++r) {
      EXPECT_EQ(sim_on->core().reg(static_cast<RegIndex>(r)),
                sim_off->core().reg(static_cast<RegIndex>(r)));
    }
    // The DIB actually worked (hits) on one side and was truly off on
    // the other.
    EXPECT_GT(sim_on->core().stats().dib_hits, 0u);
    EXPECT_EQ(sim_off->core().stats().dib_hits, 0u);
    EXPECT_EQ(sim_off->core().stats().dib_fills, 0u);
  }
}

TEST(Dib, MidRunInvalidationChangesNothing) {
  const auto profile = workloads::profile_by_name("exchange2");
  const cpu::CoreConfig config;
  // Both sims run split in two segments; one invalidates the DIB at the
  // seam. Identical outcomes isolate invalidation as a pure no-op.
  auto plain = workloads::make_workload_sim(profile, config, kInstrs);
  auto invalidated = workloads::make_workload_sim(profile, config, kInstrs);
  const Cycle budget = experiment::cycle_budget(kInstrs);
  plain->run(budget, 5'000);
  invalidated->run(budget, 5'000);
  invalidated->core().invalidate_dib();
  plain->run(budget, kInstrs);
  invalidated->run(budget, kInstrs);
  EXPECT_EQ(plain->core().stats().cycles,
            invalidated->core().stats().cycles);
  EXPECT_EQ(plain->core().stats().committed_instrs,
            invalidated->core().stats().committed_instrs);
  // The invalidated side had to refill, so it recorded strictly more
  // fills.
  EXPECT_GT(invalidated->core().stats().dib_fills,
            plain->core().stats().dib_fills);
}

// ---- cached functional engine -----------------------------------------------

TEST(CachedEngine, SimulatorReturnsOneEngineAndResetRestoresPristine) {
  auto sim = workloads::make_workload_sim(workloads::profile_by_name("mcf"),
                                          cpu::CoreConfig{}, kInstrs);
  sim::FunctionalEngine& engine = sim->functional_engine();
  EXPECT_EQ(&engine, &sim->functional_engine());  // cached, not rebuilt

  engine.run(2'000);
  EXPECT_GT(engine.committed(), 0u);
  engine.reset();
  EXPECT_EQ(engine.committed(), 0u);
  EXPECT_EQ(engine.faults(), 0u);
  for (int r = 0; r < kNumArchRegs; ++r) {
    EXPECT_EQ(engine.reg(static_cast<RegIndex>(r)), 0u);
  }
  // A fresh run starts at the entry again.
  engine.run(1);
  EXPECT_EQ(engine.committed(), 1u);
}

TEST(CachedEngine, SampledRunsStayDeterministicAcrossSimulators) {
  const auto profile = workloads::profile_by_name("gcc");
  const cpu::CoreConfig config;
  sim::SamplingSpec spec;
  spec.fast_forward_interval = 4'000;
  spec.warmup_instrs = 500;
  spec.detail_instrs = 1'000;
  auto a = workloads::make_workload_sim(profile, config, kInstrs);
  auto b = workloads::make_workload_sim(profile, config, kInstrs);
  const Cycle budget = experiment::cycle_budget(kInstrs);
  const auto ra = a->run_sampled(spec, budget, kInstrs);
  const auto rb = b->run_sampled(spec, budget, kInstrs);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.committed_instrs, rb.committed_instrs);
  EXPECT_EQ(ra.sampling.windows, rb.sampling.windows);
  EXPECT_EQ(ra.sampling.fast_forwarded, rb.sampling.fast_forwarded);
  EXPECT_GT(ra.sampling.windows, 0u);
}

// ---- spec plumbing ----------------------------------------------------------

TEST(TraceSpec, MachineSpecCarriesTraceAndDibFields) {
  sim::MachineSpec spec;
  spec.set("dib_lines=0");
  EXPECT_EQ(spec.core.dib_lines, 0);
  // The trace codec is a workload spelling (trace:@NAME), not a machine
  // field.
  EXPECT_THROW(spec.set("trace=@"), std::invalid_argument);

  const std::string json = spec.to_json();
  const sim::MachineSpec parsed = sim::MachineSpec::from_json(json);
  EXPECT_EQ(parsed.core.dib_lines, 0);
  EXPECT_EQ(parsed.to_json(), json);  // stable round trip

  sim::MachineSpec bad;
  bad.core.dib_lines = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(TraceSpec, ProfileByNameTraceSpellings) {
  const auto in_memory = workloads::profile_by_name("trace:@lbm");
  EXPECT_EQ(in_memory.trace_file, "@");
  EXPECT_EQ(in_memory.name, "trace:@lbm");
  EXPECT_EQ(in_memory.stream_frac,
            workloads::profile_by_name("lbm").stream_frac);

  EXPECT_THROW(workloads::profile_by_name("trace:/tmp/x.trace"),
               std::out_of_range);
  EXPECT_THROW(workloads::profile_by_name("trace:"), std::out_of_range);
  EXPECT_THROW(workloads::profile_by_name("trace:@nosuch"),
               std::out_of_range);
}

}  // namespace
