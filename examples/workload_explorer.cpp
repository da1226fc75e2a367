// Workload explorer: run any of the 22 SPEC2017-like profiles under any
// registered protection policy on any machine — preset, --config file,
// or --set overrides (a one-cell experiment through the same engine the
// figure benches sweep with) — and dump the microarchitectural
// statistics the figures are built from.
//
//   $ ./examples/workload_explorer                  # list profiles etc.
//   $ ./examples/workload_explorer mcf WFC 100000   # run one
//   $ ./examples/workload_explorer mcf WFB-stall --set=preset=embedded
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "experiment/experiment.h"
#include "safespec/policy.h"

int main(int argc, char** argv) {
  using namespace safespec;
  const auto opts = experiment::parse_bench_args(
      argc, argv, "[profile [policy] [instrs]]");

  if (opts.positional.empty()) {
    std::printf("usage: %s <profile> [policy] [instrs]\n\n", argv[0]);
    std::printf("profiles:");
    for (const auto& name : workloads::spec2017_profile_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\npolicies:");
    for (const auto& name : policy::registered_policy_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\npresets:");
    for (const auto& name : sim::machine_preset_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }

  auto machine = experiment::resolve_machine(opts);
  // Policy precedence: positional (any registered name; legacy lowercase
  // aliases kept) > --config/--set policy > WFC.
  bool machine_policy_chosen = !opts.config_path.empty();
  for (const auto& kv : opts.overrides) {
    if (kv.rfind("policy=", 0) == 0) machine_policy_chosen = true;
  }
  std::string policy_name =
      opts.positional.size() > 1
          ? opts.positional[1]
          : machine_policy_chosen ? machine.core.policy : std::string("WFC");
  if (policy_name == "wfb") policy_name = "WFB";
  if (policy_name == "wfc") policy_name = "WFC";
  const std::uint64_t instrs =
      opts.positional.size() > 2
          ? cli::parse_budget_or_exit(opts.positional[2].c_str(), "instrs")
          : opts.instrs;

  experiment::ExperimentSpec spec;
  spec.base_machine(std::move(machine));
  try {
    spec.profile_names({opts.positional[0]});
    spec.policy(policy_name);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s (run with no arguments to list profiles and "
                 "policies)\n", e.what());
    return 1;
  }
  spec.instrs(instrs);
  std::printf("running %s under %s for ~%llu instructions...\n",
              spec.workload_axis()[0].c_str(), policy_name.c_str(),
              static_cast<unsigned long long>(instrs));
  const auto sweep = experiment::ParallelRunner(opts.threads).run(spec);
  const auto& r = sweep.at(0, 0);

  std::printf("\ncommitted instrs     %llu\n",
              static_cast<unsigned long long>(r.committed_instrs));
  std::printf("cycles               %llu\n",
              static_cast<unsigned long long>(r.cycles));
  std::printf("IPC                  %.4f\n", r.ipc);
  std::printf("branch mispredicts   %llu\n",
              static_cast<unsigned long long>(r.mispredicts));
  std::printf("squashed instrs      %llu\n",
              static_cast<unsigned long long>(r.squashed_instrs));
  std::printf("d-cache miss rate    %.4f (incl. shadow)\n",
              r.dcache_miss_rate_incl_shadow());
  std::printf("i-cache miss rate    %.4f (incl. shadow)\n",
              r.icache_miss_rate_incl_shadow());
  if (policy::named_policy(policy_name).shadows_speculation()) {
    std::printf("shadow d-cache       hits=%llu commit-rate=%.3f "
                "p99.99-occupancy=%llu\n",
                static_cast<unsigned long long>(r.shadow_dcache_hits),
                r.shadow_dcache_commit_rate,
                static_cast<unsigned long long>(r.shadow_dcache_p9999));
    std::printf("shadow i-cache       hits=%llu commit-rate=%.3f "
                "p99.99-occupancy=%llu\n",
                static_cast<unsigned long long>(r.shadow_icache_hits),
                r.shadow_icache_commit_rate,
                static_cast<unsigned long long>(r.shadow_icache_p9999));
    std::printf("shadow TLBs          iTLB-p99.99=%llu dTLB-p99.99=%llu\n",
                static_cast<unsigned long long>(r.shadow_itlb_p9999),
                static_cast<unsigned long long>(r.shadow_dtlb_p9999));
  }

  if (!opts.csv_path.empty() || !opts.json_path.empty()) {
    experiment::ResultTable table(
        "workload_explorer", {"ipc", "dcache_miss_rate", "icache_miss_rate"});
    table.add_row(spec.workload_axis()[0],
                  {r.ipc, r.dcache_miss_rate_incl_shadow(),
                   r.icache_miss_rate_incl_shadow()});
    if (!experiment::write_files({table}, opts)) return 1;
  }
  return 0;
}
