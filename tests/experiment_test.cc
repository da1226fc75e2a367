// Tests for the experiment engine: the cell grammar and resolver,
// declarative grid expansion, the parallel runner's determinism guarantee
// (bitwise-identical results regardless of thread count), the stats
// merge helpers the sweeps aggregate with, ResultTable's text, CSV and
// JSON output, and the bench flags.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "workloads/workload.h"

namespace safespec::experiment {
namespace {

// Field-by-field comparison (memcmp would also compare padding).
void expect_bitwise_equal(const sim::SimResult& a, const sim::SimResult& b,
                          const std::string& what) {
  EXPECT_EQ(static_cast<int>(a.stop), static_cast<int>(b.stop)) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.committed_instrs, b.committed_instrs) << what;
  EXPECT_EQ(a.ipc, b.ipc) << what;
  EXPECT_EQ(a.dcache_accesses, b.dcache_accesses) << what;
  EXPECT_EQ(a.dcache_misses, b.dcache_misses) << what;
  EXPECT_EQ(a.shadow_dcache_hits, b.shadow_dcache_hits) << what;
  EXPECT_EQ(a.icache_accesses, b.icache_accesses) << what;
  EXPECT_EQ(a.icache_misses, b.icache_misses) << what;
  EXPECT_EQ(a.shadow_icache_hits, b.shadow_icache_hits) << what;
  EXPECT_EQ(a.shadow_dcache_commit_rate, b.shadow_dcache_commit_rate) << what;
  EXPECT_EQ(a.shadow_icache_commit_rate, b.shadow_icache_commit_rate) << what;
  EXPECT_EQ(a.shadow_dcache_p9999, b.shadow_dcache_p9999) << what;
  EXPECT_EQ(a.shadow_icache_p9999, b.shadow_icache_p9999) << what;
  EXPECT_EQ(a.shadow_dtlb_p9999, b.shadow_dtlb_p9999) << what;
  EXPECT_EQ(a.shadow_itlb_p9999, b.shadow_itlb_p9999) << what;
  EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
  EXPECT_EQ(a.squashed_instrs, b.squashed_instrs) << what;
  EXPECT_EQ(a.faults, b.faults) << what;
}

// ---- cell -------------------------------------------------------------------

TEST(Cell, ParseRoundTripsTheDefaultPerfDriverGrid) {
  // The golden listing's first column is the key of every default
  // perf_driver cell, printed by Cell::key().
  std::ifstream golden(SAFESPEC_GOLDEN_DIR "/perf_driver_cells.txt");
  ASSERT_TRUE(golden.good());
  std::size_t cells = 0;
  for (std::string key; golden >> key; ++cells) {
    const Cell cell = Cell::parse(key);
    EXPECT_EQ(cell.key(), key);
    const Cell again = Cell::parse(cell.key());
    EXPECT_EQ(again.workload, cell.workload) << key;
    EXPECT_EQ(again.policy, cell.policy) << key;
    EXPECT_EQ(again.preset, cell.preset) << key;
    EXPECT_EQ(again.mode, cell.mode) << key;
    EXPECT_EQ(again.cores, cell.cores) << key;
    golden.ignore(1 << 10, '\n');  // the rest of the line is results
  }
  EXPECT_EQ(cells, 20u);
}

TEST(Cell, ParseReadsModeAndCoresInEitherOrder) {
  const Cell cell = Cell::parse("trace:@mcf/WFC/embedded/cores=3/detailed");
  EXPECT_EQ(cell.workload, "trace:@mcf");
  EXPECT_EQ(cell.policy, "WFC");
  EXPECT_EQ(cell.preset, "embedded");
  EXPECT_EQ(cell.mode, "detailed");
  EXPECT_EQ(cell.cores, 3);
  EXPECT_EQ(Cell::parse("mcf/WFC/skylake/functional").mode, "functional");
}

TEST(Cell, ParseRejectsCoresOutsideTheRangeBeforeNarrowing) {
  // 2^32 + 2 used to narrow to a 2-core cell.
  EXPECT_THROW(Cell::parse("mcf/baseline/skylake/cores=4294967298"),
               std::invalid_argument);
  for (const char* bad : {"cores=0", "cores=65", "cores=x", "cores="}) {
    EXPECT_THROW(Cell::parse(std::string("mcf/baseline/skylake/") + bad),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(Cell::parse("mcf/baseline/skylake/cores=64").cores, 64);
}

TEST(Cell, ParseRejectsARepeatedModeOrCoreCount) {
  // Both used to keep the last segment silently.
  EXPECT_THROW(Cell::parse("mcf/baseline/skylake/sampled/functional"),
               std::invalid_argument);
  EXPECT_THROW(Cell::parse("mcf/baseline/skylake/cores=2/cores=1"),
               std::invalid_argument);
}

TEST(Cell, ParseRejectsMalformedItems) {
  for (const char* bad :
       {"", "mcf", "mcf/baseline", "mcf//skylake", "/baseline/skylake",
        "mcf/baseline/skylake/bogus", "mcf/baseline/skylake/detailed/cores=2/x",
        "mcf/baseline/skylake/"}) {
    EXPECT_THROW(Cell::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Cell, ResolveAppliesOverridesThenPolicyAndCores) {
  Cell cell;
  cell.workload = "lbm";
  cell.policy = "WFC";
  cell.cores = 2;
  cell.overrides = {"policy=WFB", "cores=4", "rob_entries=128"};
  const ResolvedCell r = resolve(cell);
  EXPECT_EQ(r.machine.core.policy, "WFC");
  EXPECT_EQ(r.machine.core.cores, 2);
  EXPECT_EQ(r.machine.core.rob_entries, 128);
  EXPECT_EQ(r.profile.name, "lbm");

  cell.cores = 0;  // the machine's own count: the override's
  EXPECT_EQ(resolve(cell).machine.core.cores, 4);
}

TEST(Cell, ResolveSetsTheModeSchedule) {
  Cell cell;
  cell.workload = "mcf";
  cell.instrs = 20'000;
  cell.overrides = {"sampling.fast_forward_interval=300"};
  EXPECT_EQ(resolve(cell).machine.sampling.fast_forward_interval, 300u);
  cell.mode = "sampled-fast";
  const sim::SamplingSpec fast = resolve(cell).machine.sampling;
  EXPECT_EQ(fast.fast_forward_interval, 10'000u);
  EXPECT_EQ(fast.warmup_instrs, 1'000u);
  EXPECT_EQ(fast.detail_instrs, 5'000u);
}

TEST(Cell, ResolveRejectsBadCells) {
  Cell cell;
  cell.workload = "mcf";
  cell.mode = "functional";
  cell.cores = 2;
  EXPECT_THROW(resolve(cell), std::invalid_argument);
  cell.cores = 1;
  cell.mode = "bogus";
  EXPECT_THROW(resolve(cell), std::invalid_argument);
  cell.mode = "detailed";
  cell.overrides = {"no_such_key=1"};
  EXPECT_THROW(resolve(cell), std::invalid_argument);
  cell.overrides.clear();
  cell.policy = "not-a-policy";
  EXPECT_THROW(resolve(cell), std::out_of_range);
  cell.policy = "baseline";
  cell.workload = "notabenchmark";
  EXPECT_THROW(resolve(cell), std::out_of_range);
}

TEST(Cell, RunCellReportsTheRunPhaseAndFunctionalCommits) {
  Cell cell;
  cell.workload = "exchange2";
  cell.instrs = 3'000;
  const CellRun detailed = run_cell(cell);
  EXPECT_EQ(detailed.result.stop, cpu::StopReason::kMaxInstrs);
  EXPECT_GT(detailed.result.cycles, 0u);
  EXPECT_GT(detailed.setup_ms, 0.0);
  EXPECT_GE(detailed.run_ms, 0.0);

  cell.mode = "functional";
  const CellRun functional = run_cell(cell);
  EXPECT_EQ(functional.result.stop, cpu::StopReason::kMaxInstrs);
  EXPECT_EQ(functional.result.cycles, 0u);
  EXPECT_EQ(functional.result.committed_instrs, 3'000u);
  EXPECT_EQ(functional.result.committed_all_cores, 3'000u);
}

// ---- spec -------------------------------------------------------------------

TEST(ExperimentSpec, ExpandsProfileMajor) {
  ExperimentSpec spec;
  spec.profile_names({"perlbench", "mcf", "lbm"})
      .policy("baseline")
      .policy("WFC")
      .instrs(1234);

  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 6u);
  ASSERT_EQ(spec.variant_axis().size(), 2u);
  EXPECT_EQ(spec.variant_axis()[0].policy, "baseline");
  EXPECT_EQ(spec.variant_axis()[1].policy, "WFC");

  const char* expected_profiles[] = {"perlbench", "perlbench", "mcf",
                                     "mcf",       "lbm",       "lbm"};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].workload, expected_profiles[i]);
    EXPECT_EQ(cells[i].policy, i % 2 == 0 ? "baseline" : "WFC");
    EXPECT_EQ(cells[i].preset, "skylake");
    EXPECT_EQ(cells[i].cores, 0);  // the base machine's own count
    EXPECT_EQ(cells[i].instrs, 1234u);
  }
}

TEST(ExperimentSpec, VariantMutationApplies) {
  ExperimentSpec spec;
  spec.profile_names({"x264"}).policy("WFC", {"shadow_dcache.entries=8"});
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  const sim::MachineSpec machine = resolve(cells[0], spec.machine()).machine;
  EXPECT_EQ(machine.core.policy, "WFC");
  EXPECT_EQ(machine.core.shadow_dcache.entries, 8);
  EXPECT_THROW(spec.policy("WFC", {"no_such_key=1"}), std::invalid_argument);
}

TEST(ExperimentSpec, UnknownProfileThrows) {
  ExperimentSpec spec;
  EXPECT_THROW(spec.profile_names({"notabenchmark"}), std::out_of_range);
}

TEST(ParallelRunner, DeterministicAcrossThreadCounts) {
  ExperimentSpec spec;
  spec.profile_names({"exchange2", "x264", "deepsjeng"})
      .policy("baseline")
      .policy("WFC")
      .instrs(4000);

  const auto serial = ParallelRunner(1).run(spec);
  const auto parallel = ParallelRunner(4).run(spec);

  ASSERT_EQ(serial.flat().size(), parallel.flat().size());
  for (std::size_t i = 0; i < serial.flat().size(); ++i) {
    expect_bitwise_equal(serial.flat()[i], parallel.flat()[i],
                         "cell " + std::to_string(i));
  }
  // And the sweep actually ran: every cell committed instructions.
  for (const auto& r : serial.flat()) EXPECT_GT(r.committed_instrs, 0u);
}

TEST(ParallelRunner, ParallelForCoversEveryIndexOnce) {
  std::vector<int> visits(257, 0);
  ParallelRunner(8).parallel_for(visits.size(),
                                 [&](std::size_t i) { visits[i]++; });
  for (std::size_t i = 0; i < visits.size(); ++i)
    EXPECT_EQ(visits[i], 1) << "index " << i;
}

TEST(ParallelRunner, ZeroThreadsPicksHardwareConcurrency) {
  EXPECT_GE(ParallelRunner(0).threads(), 1);
}

TEST(ResultTable, CsvRoundTripsRawValues) {
  ResultTable table("T, with comma", {"a", "b"});
  table.add_row("row1", {1.5, 2.0});
  table.add_partial_row("summary", {std::nullopt, 3.25});

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.append_csv(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);

  EXPECT_NE(text.find("table,benchmark,a,b"), std::string::npos);
  EXPECT_NE(text.find("\"T, with comma\",row1,1.5,2"), std::string::npos);
  EXPECT_NE(text.find("summary,,3.25"), std::string::npos);
}

TEST(ExperimentSpec, BaseMachineReshapesEveryVariant) {
  ExperimentSpec spec;
  spec.base_machine(sim::machine_preset("embedded"));
  spec.profile_names({"x264"}).policy("WFB-stall");
  const auto cells = spec.expand();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].preset, "embedded");
  const sim::MachineSpec machine = resolve(cells[0], spec.machine()).machine;
  EXPECT_EQ(machine.core.fetch_width, 2);
  EXPECT_EQ(machine.core.policy, "WFB-stall");
}

TEST(ExperimentSpec, UnknownPolicyNameThrows) {
  ExperimentSpec spec;
  EXPECT_THROW(spec.policy("not-a-policy"), std::out_of_range);
}

TEST(SweepResult, StopNoteFlagsNonConvergedCells) {
  sim::SimResult ok, budget, wedged;
  ok.stop = cpu::StopReason::kMaxInstrs;
  budget.stop = cpu::StopReason::kMaxCycles;
  wedged.stop = cpu::StopReason::kFaultNoHandler;
  const SweepResult sweep(2, 2, {ok, budget, ok, wedged},
                          {"baseline", "WFC"});
  EXPECT_EQ(sweep.stop_note(0, {0, 1}), "WFC:max-cycles");
  EXPECT_EQ(sweep.stop_note(1, {0, 1}), "WFC:fault");

  // A table notes only the variants it reads, in the order it lists them.
  const SweepResult three(1, 3, {ok, wedged, budget},
                          {"baseline", "WFB", "WFC"});
  EXPECT_EQ(three.stop_note(0, {0, 1, 2}), "WFB:fault WFC:max-cycles");
  EXPECT_EQ(three.stop_note(0, {2, 1}), "WFC:max-cycles WFB:fault");
  EXPECT_EQ(three.stop_note(0, {0, 2}), "WFC:max-cycles");
  EXPECT_EQ(three.stop_note(0, {0}), "");
}

TEST(ResultTable, StopNotesSurfaceInEverySink) {
  ResultTable table("T", {"a"});
  table.add_row("good", {1.0});
  table.annotate_last_row("");  // no-op
  table.add_row("bad", {2.0});
  table.annotate_last_row("WFC:max-cycles");

  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.append_csv(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("table,benchmark,a,stop"), std::string::npos);
  EXPECT_NE(text.find("T,good,1,\n"), std::string::npos);
  EXPECT_NE(text.find("T,bad,2,WFC:max-cycles"), std::string::npos);

  std::vector<std::string> items;
  table.append_json(items);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].find("stop"), std::string::npos);
  EXPECT_NE(items[1].find("\"stop\":\"WFC:max-cycles\""), std::string::npos);
}

TEST(ResultTable, NoNotesMeansUnchangedCsvShape) {
  ResultTable table("T", {"a"});
  table.add_row("good", {1.0});
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  table.append_csv(tmp);
  std::rewind(tmp);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), tmp));
  std::fclose(tmp);
  EXPECT_NE(text.find("table,benchmark,a\n"), std::string::npos);
  EXPECT_EQ(text.find("stop"), std::string::npos);
}

TEST(BenchOptions, ConfigAndSetFlagsParse) {
  const char* argv[] = {"bench", "--set=policy=WFB", "--config=m.json",
                        "--set", "rob_entries=64", "--threads=2"};
  const auto opts =
      parse_bench_args(static_cast<int>(std::size(argv)),
                       const_cast<char**>(argv));
  EXPECT_EQ(opts.config_path, "m.json");
  ASSERT_EQ(opts.overrides.size(), 2u);
  EXPECT_EQ(opts.overrides[0], "policy=WFB");
  EXPECT_EQ(opts.overrides[1], "rob_entries=64");
  EXPECT_EQ(opts.threads, 2);
}

TEST(BenchOptions, MalformedNumbersAndZeroBudgetsExitTwo) {
  for (const char* flag :
       {"--instrs=abc", "--instrs=2k", "--instrs=0", "--threads=abc"}) {
    const char* argv[] = {"bench", flag};
    EXPECT_EXIT(parse_bench_args(2, const_cast<char**>(argv)),
                ::testing::ExitedWithCode(2), "")
        << flag;
  }
  // workload_explorer's positional budget goes through the same check.
  EXPECT_EXIT(cli::parse_budget_or_exit("2k", "instrs"),
              ::testing::ExitedWithCode(2), "");
  EXPECT_EQ(cli::parse_budget_or_exit("2000", "instrs"), 2000u);
}

TEST(ResultTable, WriteFilesFailsWhenAFileCannotBeWritten) {
  ResultTable table("T", {"a"});
  table.add_row("row", {1.0});
  const std::string missing_dir = ::testing::TempDir() + "no-such-dir/";
  BenchOptions csv;
  csv.csv_path = missing_dir + "t.csv";
  EXPECT_FALSE(write_files({table}, csv));
  BenchOptions json;
  json.json_path = missing_dir + "t.json";
  EXPECT_FALSE(write_files({table}, json));
  // /dev/full opens, but every write to it fails.
  if (std::FILE* full = std::fopen("/dev/full", "w")) {
    std::fclose(full);
    BenchOptions csv_full;
    csv_full.csv_path = "/dev/full";
    EXPECT_FALSE(write_files({table}, csv_full));
  }
  BenchOptions none;
  EXPECT_TRUE(write_files({table}, none));
}

TEST(SimResultHardening, RateHelpersClampInsteadOfUnderflowing) {
  sim::SimResult r;
  r.dcache_accesses = 100;
  r.dcache_misses = 5;
  r.shadow_dcache_hits = 9;  // disagreeing counters: hits > misses
  EXPECT_DOUBLE_EQ(r.dcache_miss_rate_incl_shadow(), 0.0);
  EXPECT_GE(r.shadow_dcache_hit_fraction(), 0.0);
  EXPECT_LE(r.shadow_dcache_hit_fraction(), 1.0);

  sim::SimResult i;
  i.icache_accesses = 10;
  i.icache_misses = 15;  // more misses than accesses
  i.shadow_icache_hits = 2;
  EXPECT_DOUBLE_EQ(i.shadow_icache_hit_fraction(), 0.0);
}

}  // namespace
}  // namespace safespec::experiment
