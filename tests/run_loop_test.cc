// Run-loop equivalence: sim::Simulator::run — event-driven scheduling
// plus quiet-cycle jumps — against the one-cycle reference, a plain
// cpu::Core::step() loop over a fresh twin machine (round-robin, core 0
// first, the same budget and wedge rules). Every observable counter must
// match: the stop reason, the clocks, every CoreStats field, the cache,
// TLB and predictor hit/miss counts, and every shadow table's lifecycle
// counters and occupancy histogram. The grid covers every registered
// policy on five SPEC stand-ins, Table I and 4-entry kStall shadows, and
// cores 1 and 2, under a generous and a tight cycle budget, so the jump's
// caps at the budget and at the wedge backstop are both exercised.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cpu/core.h"
#include "safespec/policy.h"
#include "sim/machine.h"
#include "sim/simulator.h"
#include "workloads/runner.h"
#include "workloads/workload.h"

namespace safespec {
namespace {

constexpr std::uint64_t kInstrs = 4'000;
/// Past the wedge backstop (100k idle cycles), so a wedged cell stops on
/// the backstop rather than on the budget.
constexpr Cycle kGenerousBudget = 300'000;
constexpr Cycle kTightBudget = 2'777;

/// The reference: steps every live core once per cycle. A core leaves the
/// schedule once finished, or wedged (nothing committed for 100k cycles).
cpu::StopReason step_loop(sim::Simulator& sim, Cycle max_cycles,
                          std::uint64_t max_instrs) {
  const auto n = static_cast<std::size_t>(sim.num_cores());
  std::vector<bool> done(n);
  std::vector<std::uint64_t> last_committed(n);
  std::vector<Cycle> last_progress(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    done[c] = sim.core(static_cast<int>(c)).finished();
    last_committed[c] = sim.core(static_cast<int>(c)).stats().committed_instrs;
  }
  cpu::Core& primary = sim.core(0);
  const std::uint64_t start = primary.stats().committed_instrs;
  for (Cycle t = 0;; ++t) {
    bool any_live = false;
    for (std::size_t c = 0; c < n; ++c) any_live = any_live || !done[c];
    if (!any_live) break;
    if (t >= max_cycles) return cpu::StopReason::kMaxCycles;
    if (primary.stats().committed_instrs - start >= max_instrs) {
      return cpu::StopReason::kMaxInstrs;
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (done[c]) continue;
      cpu::Core& core = sim.core(static_cast<int>(c));
      core.step();
      if (core.stats().committed_instrs != last_committed[c]) {
        last_committed[c] = core.stats().committed_instrs;
        last_progress[c] = t + 1;
      } else if (t + 1 - last_progress[c] > 100'000) {
        done[c] = true;
      }
      if (core.finished()) done[c] = true;
    }
  }
  return primary.halted() ? primary.stop_reason()
                          : cpu::StopReason::kFaultNoHandler;
}

using Observables = std::vector<std::pair<std::string, std::uint64_t>>;

void add_hit_miss(Observables& out, const std::string& name,
                  const HitMiss& hm) {
  out.emplace_back(name + ".hits", hm.hits.value());
  out.emplace_back(name + ".misses", hm.misses.value());
}

void add_shadow(Observables& out, const std::string& name,
                const shadow::ShadowStats& s) {
  out.emplace_back(name + ".inserts", s.inserts.value());
  out.emplace_back(name + ".hits", s.hits.value());
  out.emplace_back(name + ".committed", s.committed.value());
  out.emplace_back(name + ".squashed", s.squashed.value());
  out.emplace_back(name + ".full_drops", s.full_drops.value());
  out.emplace_back(name + ".full_stalls", s.full_stalls.value());
  out.emplace_back(name + ".occupancy.count", s.occupancy.count());
  out.emplace_back(name + ".occupancy.max", s.occupancy.max());
  out.emplace_back(name + ".occupancy.p9999", s.occupancy.percentile(0.9999));
}

Observables observe(sim::Simulator& sim, cpu::StopReason stop) {
  Observables out;
  out.emplace_back("stop", static_cast<std::uint64_t>(stop));
  for (int c = 0; c < sim.num_cores(); ++c) {
    const std::string p = "core" + std::to_string(c) + ".";
    cpu::Core& core = sim.core(c);
    const cpu::CoreStats& s = core.stats();
    out.emplace_back(p + "now", core.now());
    out.emplace_back(p + "cycles", s.cycles);
    out.emplace_back(p + "committed_instrs", s.committed_instrs);
    out.emplace_back(p + "committed_loads", s.committed_loads);
    out.emplace_back(p + "committed_stores", s.committed_stores);
    out.emplace_back(p + "committed_branches", s.committed_branches);
    out.emplace_back(p + "fetched_instrs", s.fetched_instrs);
    out.emplace_back(p + "squashed_instrs", s.squashed_instrs);
    out.emplace_back(p + "squashes", s.squashes);
    out.emplace_back(p + "mispredicts", s.mispredicts);
    out.emplace_back(p + "faults", s.faults);
    out.emplace_back(p + "shadow_stall_cycles", s.shadow_stall_cycles);
    out.emplace_back(p + "fetch_accesses", s.fetch_accesses);
    out.emplace_back(p + "fetch_l1i_hits", s.fetch_l1i_hits);
    out.emplace_back(p + "fetch_shadow_hits", s.fetch_shadow_hits);
    out.emplace_back(p + "fetch_misses", s.fetch_misses);
    out.emplace_back(p + "dib_hits", s.dib_hits);
    out.emplace_back(p + "dib_fills", s.dib_fills);
    add_hit_miss(out, p + "l1i", core.hierarchy().l1i().stats());
    add_hit_miss(out, p + "l1d", core.hierarchy().l1d().stats());
    add_hit_miss(out, p + "itlb", core.itlb().stats());
    add_hit_miss(out, p + "dtlb", core.dtlb().stats());
    add_hit_miss(out, p + "predictor", core.predictor().direction_stats());
    add_shadow(out, p + "shadow_dcache", core.shadow_dcache().stats());
    add_shadow(out, p + "shadow_icache", core.shadow_icache().stats());
    add_shadow(out, p + "shadow_dtlb", core.shadow_dtlb().stats());
    add_shadow(out, p + "shadow_itlb", core.shadow_itlb().stats());
  }
  add_hit_miss(out, "l2", sim.shared_levels().l2().stats());
  add_hit_miss(out, "l3", sim.shared_levels().l3().stats());
  return out;
}

cpu::CoreConfig cell_config(const std::string& policy, bool stall_shadows,
                            int cores) {
  cpu::CoreConfig config = sim::machine_preset("skylake").core;
  config.policy = policy;
  config.cores = cores;
  if (stall_shadows) {
    for (shadow::ShadowConfig* s :
         {&config.shadow_dcache, &config.shadow_icache, &config.shadow_dtlb,
          &config.shadow_itlb}) {
      s->entries = 4;
      s->full_policy = shadow::FullPolicy::kStall;
    }
  }
  return config;
}

class RunLoopEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(RunLoopEquivalence, MatchesOneCycleStepLoop) {
  const auto profile = workloads::profile_by_name(GetParam());
  for (const auto& policy : policy::registered_policy_names()) {
    for (const bool stall_shadows : {false, true}) {
      for (const int cores : {1, 2}) {
        for (const Cycle budget : {kGenerousBudget, kTightBudget}) {
          const cpu::CoreConfig config =
              cell_config(policy, stall_shadows, cores);
          const std::string cell =
              std::string(GetParam()) + "/" + policy +
              (stall_shadows ? "/stall4" : "/tableI") + "/cores=" +
              std::to_string(cores) + "/budget=" + std::to_string(budget);
          auto fast = workloads::make_workload_sim(profile, config, kInstrs);
          auto slow = workloads::make_workload_sim(profile, config, kInstrs);
          const sim::SimResult r = fast->run(budget, kInstrs);
          const cpu::StopReason ref = step_loop(*slow, budget, kInstrs);
          EXPECT_EQ(r.cycles, slow->core().stats().cycles) << cell;
          const Observables got = observe(*fast, r.stop);
          const Observables want = observe(*slow, ref);
          ASSERT_EQ(got.size(), want.size()) << cell;
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].second, want[i].second)
                << cell << ": " << want[i].first;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, RunLoopEquivalence,
                         ::testing::Values("mcf", "lbm", "gcc", "exchange2",
                                           "xalancbmk"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(RunLoopEquivalence, StallShadowWedgeStopsOnTheBackstop) {
  // mcf under WFC with 4-entry kStall shadows fills a table nothing can
  // drain and commits nothing more: the run must end on the wedge
  // backstop (stop "fault", 100k+ cycles), not on the cycle budget, so
  // the grid above really pins the jump's wedge cap.
  auto sim = workloads::make_workload_sim(workloads::profile_by_name("mcf"),
                                          cell_config("WFC", true, 1),
                                          kInstrs);
  const sim::SimResult r = sim->run(kGenerousBudget, kInstrs);
  EXPECT_EQ(r.stop, cpu::StopReason::kFaultNoHandler);
  EXPECT_GT(r.cycles, Cycle{100'000});
  EXPECT_LT(r.cycles, kGenerousBudget);
  EXPECT_LT(r.committed_instrs, kInstrs);
  EXPECT_GT(sim->core().stats().shadow_stall_cycles, 0u);
}

}  // namespace
}  // namespace safespec
