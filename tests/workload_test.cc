// Tests for the synthetic SPEC2017 stand-ins: profile table integrity,
// generator determinism and structure, and a cross-policy sweep checking
// every profile runs to completion with sane statistics.
#include <gtest/gtest.h>

#include <set>

#include "experiment/cell.h"
#include "workloads/workload.h"

namespace safespec::workloads {
namespace {

TEST(Profiles, TwentyTwoInPaperOrder) {
  // The paper's figures plot 22 SPEC2017 benchmarks, perlbench..gcc.
  const auto profiles = spec2017_profiles();
  ASSERT_EQ(profiles.size(), 22u);
  EXPECT_EQ(profiles.front().name, "perlbench");
  EXPECT_EQ(profiles.back().name, "gcc");
  std::set<std::string> names;
  for (const auto& p : profiles) names.insert(p.name);
  EXPECT_EQ(names.size(), 22u) << "duplicate profile names";
}

TEST(Profiles, FractionsAreSane) {
  for (const auto& p : spec2017_profiles()) {
    EXPECT_GT(p.load_frac, 0.0) << p.name;
    EXPECT_LT(p.load_frac + p.store_frac, 1.0) << p.name;
    EXPECT_LE(p.chase_frac + p.stream_frac, 1.0) << p.name;
    EXPECT_GE(p.hot_frac, 0.0) << p.name;
    EXPECT_LE(p.hot_frac, 1.0) << p.name;
    EXPECT_GT(p.code_blocks, 0) << p.name;
    EXPECT_GE(p.data_footprint, 2 * kPageSize) << p.name;
  }
}

TEST(Profiles, LookupByName) {
  EXPECT_EQ(profile_by_name("mcf").name, "mcf");
  EXPECT_THROW(profile_by_name("notabenchmark"), std::out_of_range);
}

TEST(Generator, DeterministicForSameSeed) {
  const auto p = profile_by_name("xz");
  const auto a = generate(p, 10'000);
  const auto b = generate(p, 10'000);
  ASSERT_EQ(a.program.size(), b.program.size());
  for (const Addr pc : a.program.pcs()) {
    const auto* ia = a.program.at(pc);
    const auto* ib = b.program.at(pc);
    ASSERT_NE(ib, nullptr) << "pc layout differs";
    EXPECT_EQ(static_cast<int>(ia->op), static_cast<int>(ib->op));
    EXPECT_EQ(ia->imm, ib->imm);
  }
}

TEST(Generator, ChaseRegionIsOneCycle) {
  auto p = profile_by_name("mcf");
  const auto image = generate(p, 1'000);
  ASSERT_FALSE(image.init_words.empty());
  // Follow the links: every slot visited exactly once, returning to start.
  std::map<Addr, std::uint64_t> links;
  for (const auto& word : image.init_words) links[word.addr] = word.value;
  const Addr start = links.begin()->first;
  Addr cur = start;
  std::set<Addr> visited;
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_TRUE(visited.insert(cur).second) << "cycle shorter than region";
    auto it = links.find(cur);
    ASSERT_NE(it, links.end());
    cur = it->second;
  }
  EXPECT_EQ(cur, start);
  EXPECT_EQ(visited.size(), links.size());
}

TEST(Generator, CodeFootprintScalesWithBlocks) {
  auto small = profile_by_name("lbm");       // 16 blocks
  auto large = profile_by_name("gcc");       // 192 blocks
  EXPECT_GT(generate(large, 1'000).program.size(),
            2 * generate(small, 1'000).program.size());
}

TEST(Generator, EmptyBodyRejected) {
  WorkloadProfile p;
  p.code_blocks = 0;
  EXPECT_THROW(generate(p, 1000), std::invalid_argument);
}

// ---- unknown workload names -------------------------------------------------

/// A stale trace:PATH, an empty or unknown trace:@NAME and a misspelt
/// profile all fail the same way: the error names the input and lists
/// every name that would have worked, plain and as trace:@NAME.
void expect_unknown_workload(const std::string& name) {
  try {
    profile_by_name(name);
    ADD_FAILURE() << name << " must be an unknown workload";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"" + name + "\""), std::string::npos) << what;
    EXPECT_NE(what.find("perlbench, "), std::string::npos) << what;
    EXPECT_NE(what.find("mcf"), std::string::npos) << what;
    EXPECT_NE(what.find("gcc, or trace:@NAME"), std::string::npos) << what;
  }
}

/// trace:PATH no longer loads a file; a stale one must say which input
/// failed and which trace spelling is left.
TEST(TraceWorkloads, MissingTraceFileNamesPathAndGrammar) {
  expect_unknown_workload("trace:/tmp/x.trace");
}

/// An unknown NAME, with or without trace:@, suggests both spellings of
/// every known workload.
TEST(TraceWorkloads, UnknownAtNameSuggestsBothSpellings) {
  expect_unknown_workload("trace:@nosuch");
  expect_unknown_workload("mfc");
}

TEST(TraceWorkloads, EmptyTraceSpecRejected) {
  expect_unknown_workload("trace:");
}

// Cross-product sweep: every profile must run to its halt (or instruction
// budget) under every policy with a plausible IPC.
struct SweepParam {
  std::string profile;
  const char* policy;
};

class WorkloadSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(WorkloadSweep, RunsWithSaneStatistics) {
  experiment::Cell cell;
  cell.workload = GetParam().profile;
  cell.policy = GetParam().policy;
  cell.instrs = 5'000;
  const auto r = experiment::run_cell(cell).result;
  EXPECT_GE(r.committed_instrs, 5'000u);
  EXPECT_GT(r.ipc, 0.01);
  EXPECT_LT(r.ipc, 6.0);
  EXPECT_LE(r.dcache_miss_rate_incl_shadow(), 1.0);
  EXPECT_LE(r.icache_miss_rate_incl_shadow(), 1.0);
  if (cell.policy != "baseline") {
    // Shadow occupancy percentiles must respect the structure bounds.
    EXPECT_LE(r.shadow_dcache_p9999, 72u);
    EXPECT_LE(r.shadow_icache_p9999, 224u);
  }
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const auto& p : spec2017_profiles()) {
    for (const char* policy : {"baseline", "WFB", "WFC"}) {
      out.push_back({p.name, policy});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllProfilesAllPolicies, WorkloadSweep, ::testing::ValuesIn(sweep_params()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.profile + "_" + info.param.policy;
    });

}  // namespace
}  // namespace safespec::workloads
