// Figure 12: d-cache read miss rate including the shadow d-cache, WFC vs
// baseline (paper shape: nearly identical bars).
// Figure 13: percentage of read hits served by the shadow d-cache under
// WFC (paper shape: small — the d-cache has limited spatial locality).
#include <vector>

#include "common/stats.h"
#include "experiment/experiment.h"

int main(int argc, char** argv) {
  using namespace safespec;
  const auto opts = experiment::parse_bench_args(argc, argv);

  experiment::ExperimentSpec spec;
  spec.base_machine(experiment::resolve_machine(opts));
  spec.all_spec_profiles()
      .policy("baseline")
      .policy("WFC")
      .instrs(opts.instrs);
  const auto sweep = experiment::ParallelRunner(opts.threads).run(spec);
  const auto& profiles = spec.workload_axis();

  experiment::ResultTable fig12(
      "Fig 12: d-cache read miss rate (including shadow d-cache)",
      {"WFC", "baseline"});
  std::vector<double> wfc_rates, base_rates;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const double wfc = sweep.at(p, 1).dcache_miss_rate_incl_shadow();
    const double base = sweep.at(p, 0).dcache_miss_rate_incl_shadow();
    fig12.add_row(profiles[p], {wfc, base});
    fig12.annotate_last_row(sweep.stop_note(p));
    wfc_rates.push_back(wfc);
    base_rates.push_back(base);
  }
  fig12.add_row("Average",
                {arithmetic_mean(wfc_rates), arithmetic_mean(base_rates)});

  experiment::ResultTable fig13(
      "Fig 13: percentage of hits on shadow d-cache (WFC)", {"% of hits"});
  std::vector<double> pcts;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const double pct = 100.0 * sweep.at(p, 1).shadow_dcache_hit_fraction();
    fig13.add_row(profiles[p], {pct}, "%12.2f");
    fig13.annotate_last_row(sweep.stop_note(p));
    pcts.push_back(pct);
  }
  fig13.add_row("Average", {arithmetic_mean(pcts)}, "%12.2f");

  experiment::emit_tables({&fig12, &fig13}, opts);
  return 0;
}
