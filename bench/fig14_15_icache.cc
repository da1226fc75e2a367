// Figure 14: i-cache miss rate including the shadow i-cache, WFC vs
// baseline. Figure 15: percentage of fetch hits served by the shadow
// i-cache under WFC (paper shape: high — strong spatial locality means
// several instructions execute from a line while it is still shadowed).
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

  experiment::ResultTable fig14(
      "Fig 14: i-cache miss rate (including shadow i-cache)",
      {"WFC", "baseline"});
  std::vector<double> wfc_rates, base_rates;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const double wfc = sweep.at(p, 1).icache_miss_rate_incl_shadow();
    const double base = sweep.at(p, 0).icache_miss_rate_incl_shadow();
    fig14.add_row(profiles[p], {wfc, base});
    fig14.annotate_last_row(sweep.stop_note(p));
    wfc_rates.push_back(wfc);
    base_rates.push_back(base);
  }
  fig14.add_row("Average",
                {arithmetic_mean(wfc_rates), arithmetic_mean(base_rates)});

  experiment::ResultTable fig15(
      "Fig 15: percentage of hits on shadow i-cache (WFC)", {"% of hits"});
  std::vector<double> pcts;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const double pct = 100.0 * sweep.at(p, 1).shadow_icache_hit_fraction();
    fig15.add_row(profiles[p], {pct}, "%12.2f");
    fig15.annotate_last_row(sweep.stop_note(p));
    pcts.push_back(pct);
  }
  fig15.add_row("Average", {arithmetic_mean(pcts)}, "%12.2f");

  experiment::emit_tables({&fig14, &fig15}, opts);
  return 0;
}
