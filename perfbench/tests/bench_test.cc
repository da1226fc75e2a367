// Tests of the benchmark itself: slicing is exact, seeds change inputs
// but not the metric set, and injected architectural defects are caught.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using safespec::cpu::StopReason;

/// A tiny run of `workload` that finishes after one timed pass.
Options tiny(const std::string& workload, std::uint64_t seed,
             bool trace = false) {
  Options o;
  o.workload = workload;
  o.seed = seed;
  o.seconds = 1e-3;
  o.trace = trace;
  o.scale = 0.02;
  return o;
}

std::vector<std::string> metric_names(const Report& r) {
  std::vector<std::string> names;
  for (const Metric& m : r.metrics) names.push_back(m.name);
  return names;
}

std::map<std::string, std::uint64_t> digests(const Report& r) {
  return {r.digests.begin(), r.digests.end()};
}

void expect_sliced_equals_one_shot(const Cell& cell) {
  const auto sliced = build_cell(cell, 3);
  const auto whole = build_cell(cell, 3);
  std::vector<StopReason> stops;
  const auto a = run_sliced(*sliced, cell, &stops);
  const auto b = whole->run(cell.instrs * 200 + 1'000'000, cell.instrs);
  ASSERT_GE(stops.size(), 2u) << cell.name();
  for (const StopReason s : stops) EXPECT_EQ(s, StopReason::kMaxInstrs);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.cycles, b.cycles) << cell.name();
  EXPECT_EQ(a.committed_all_cores, b.committed_all_cores) << cell.name();
  EXPECT_EQ(stats_digest(*sliced, a), stats_digest(*whole, b)) << cell.name();
}

Cell find_cell(const std::string& workload, const std::string& name) {
  for (const Cell& c : workload_cells(workload, 0.15)) {
    if (c.name() == name) return c;
  }
  ADD_FAILURE() << "no cell " << name << " in " << workload;
  return {};
}

TEST(Perfbench, SlicedDetailedCellIsCycleIdenticalToOneShot) {
  expect_sliced_equals_one_shot(find_cell("detailed", "mcf/WFC#1"));
}

TEST(Perfbench, SlicedMulticoreCellIsCycleIdenticalToOneShot) {
  Cell cell = find_cell("multicore", "mcf/SHARP/cores=4#1");
  cell.slice = cell.instrs / 3 + 7;  // uneven slices
  expect_sliced_equals_one_shot(cell);
}

TEST(Perfbench, CellsOfOnePolicyPairSharePrograms) {
  const auto base = build_cell(find_cell("detailed", "mcf/baseline#2"), 6);
  const auto wfc = build_cell(find_cell("detailed", "mcf/WFC#2"), 6);
  const auto other = build_cell(find_cell("detailed", "mcf/WFC#0"), 6);
  EXPECT_EQ(program_digest(*base), program_digest(*wfc));
  EXPECT_NE(program_digest(*wfc), program_digest(*other));
}

TEST(Perfbench, EveryWorkloadPassesItsChecks) {
  for (const std::string& w : workload_names()) {
    const Report r = run(tiny(w, 5));
    EXPECT_TRUE(r.correct()) << w;
    EXPECT_TRUE(r.problems.empty())
        << w << ": " << (r.problems.empty() ? "" : r.problems.front());
    EXPECT_EQ(r.failed, 0u) << w;
    EXPECT_GT(r.attempted, 0u) << w;
  }
}

TEST(Perfbench, SameSeedReproducesEveryDigest) {
  EXPECT_EQ(digests(run(tiny("detailed", 9))), digests(run(tiny("detailed", 9))));
  EXPECT_EQ(digests(run(tiny("multicore", 9, /*trace=*/true))),
            digests(run(tiny("multicore", 9, /*trace=*/true))));
}

TEST(Perfbench, SeedChangesProgramsButNotMetricNames) {
  for (const std::string& w : workload_names()) {
    for (const bool trace : {false, true}) {
      const Report a = run(tiny(w, 1, trace));
      const Report b = run(tiny(w, 2, trace));
      EXPECT_NE(digests(a).at("programs"), digests(b).at("programs")) << w;
      EXPECT_EQ(metric_names(a), metric_names(b)) << w;
      EXPECT_FALSE(a.metrics.empty()) << w;
    }
  }
}

TEST(Perfbench, TracedRunRecordsSpansAndSelfTime) {
  const Report r = run(tiny("detailed", 4, /*trace=*/true));
  EXPECT_GE(r.passes, 2);  // one traced and one untraced pass
  EXPECT_NE(r.spans_json.find("\"sim.run\""), std::string::npos);
  // The probes reach the layers the workload's own units never call.
  EXPECT_NE(r.spans_json.find("\"sampled.run\""), std::string::npos);
  EXPECT_NE(r.spans_json.find("\"fuzz.check_seed\""), std::string::npos);
  EXPECT_TRUE(r.problems.empty());
  bool saw_run = false;
  for (const auto& t : r.self_times) {
    EXPECT_LE(t.self_ms, t.total_ms + 1e-9) << t.name;
    if (t.name == "sim.run") saw_run = t.calls > 0;
  }
  EXPECT_TRUE(saw_run);
}

TEST(Perfbench, InjectedCommitCorruptionFailsDetailedRun) {
  Options o = tiny("detailed", 1);
  o.mutation.commit_xor = 0x10;
  const Report r = run(o);
  EXPECT_FALSE(r.correct());
  EXPECT_GT(r.failed, 0u);
  EXPECT_FALSE(r.problems.empty());
}

TEST(Perfbench, InjectedShadowLeakFailsCheckSeedProbe) {
  // The traced run's check_seed probe hands the hook to check_seed through
  // DifferentialConfig::mutation; the leak keeps architectural state
  // intact, so only the probe's shadow drain check can catch it.
  Options o = tiny("multicore", 1, /*trace=*/true);
  o.mutation.skip_squash_release = true;
  const Report r = run(o);
  bool probe_failed = false;
  for (const std::string& p : r.problems) {
    probe_failed |= p.rfind("seed ", 0) == 0;
  }
  EXPECT_TRUE(probe_failed);
}

TEST(Perfbench, UnknownWorkloadIsRejected) {
  EXPECT_THROW(run(tiny("nope", 1)), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
